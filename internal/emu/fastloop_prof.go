// Code generated by branchreg/internal/emu/gen. DO NOT EDIT.

package emu

// The profiled twins of the fast loops (fastloop.go). Each is the same
// predecoded dispatch loop with BlockProfile updates at transfers of
// control — unconditional writes, no callbacks — generated from the same
// template as the fused engine so the micro-op semantics cannot drift
// between engine variants. Every profiled run executes here: the fused
// engine has no profiled form, so RunContext sends a profiled fused run
// to these loops.
//
// The twins are deliberately separate functions rather than a generic
// parameterization: an earlier generic version put a dictionary-indirect
// call at every hook site of the shared gcshape body, costing ~20% BRM
// throughput even for the no-op instantiation, and a runtime 'prof !=
// nil' test per transfer cost ~4% baseline / ~12% BRM. Keeping the
// unprofiled loops byte-identical to their pre-profiler form is a gated
// requirement (make bench-gate).
//
// Drift between a loop and its twin is caught by TestProfileEnginesAgree
// and TestProfiledRunsMatchUnprofiled (internal/driver), which hold
// profiled and unprofiled runs to identical outputs and Stats across the
// full suite, and by the Stats-identity assertions on the profile itself.

import (
	"context"
	"encoding/binary"

	"branchreg/internal/isa"
)

// runFastBaselineProf is the profiled twin of Machine.runFastBaseline.
func runFastBaselineProf(m *Machine, ctx context.Context, prof *BlockProfile) (int32, error) {
	ops := m.dec
	st := &m.Stats
	mem := m.Mem
	R := &m.R
	F := &m.F
	limit := m.MaxInstructions
	insts := st.Instructions
	nextPoll := insts + ctxCheckStride
	pc := m.pc
	pending := m.pending

	for !m.halted {
		if pc < 0 || pc >= len(ops) {
			m.pending = pending
			st.Instructions = insts
			return 0, m.fastTrap(pc, insts, TrapPCOutOfRange,
				"pc index %d outside text [0,%d)", pc, len(ops))
		}
		u := &ops[pc]
		insts++

		seqAdv := true
		switch u.kind {

		case uNop:
			st.Noops++
		case uAddImm:
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] + u.imm
			}
		case uAddReg:
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] + R[u.rs2]
			}
		case uSubImm:
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] - u.imm
			}
		case uSubReg:
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] - R[u.rs2]
			}
		case uMulImm:
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] * u.imm
			}
		case uMulReg:
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] * R[u.rs2]
			}
		case uDivImm, uDivReg:
			d := u.imm
			if u.kind == uDivReg {
				d = R[u.rs2]
			}
			if d == 0 {
				m.pending = pending
				return 0, m.fastTrap(pc, insts, TrapArithmetic, "division by zero")
			}
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] / d
			}
		case uRemImm, uRemReg:
			d := u.imm
			if u.kind == uRemReg {
				d = R[u.rs2]
			}
			if d == 0 {
				m.pending = pending
				return 0, m.fastTrap(pc, insts, TrapArithmetic, "modulo by zero")
			}
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] % d
			}
		case uAndImm:
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] & u.imm
			}
		case uAndReg:
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] & R[u.rs2]
			}
		case uOrImm:
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] | u.imm
			}
		case uOrReg:
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] | R[u.rs2]
			}
		case uXorImm:
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] ^ u.imm
			}
		case uXorReg:
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] ^ R[u.rs2]
			}
		case uSllImm:
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] << (uint32(u.imm) & 31)
			}
		case uSllReg:
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] << (uint32(R[u.rs2]) & 31)
			}
		case uSrlImm:
			if u.rd != 0 {
				R[u.rd] = int32(uint32(R[u.rs1]) >> (uint32(u.imm) & 31))
			}
		case uSrlReg:
			if u.rd != 0 {
				R[u.rd] = int32(uint32(R[u.rs1]) >> (uint32(R[u.rs2]) & 31))
			}
		case uSraImm:
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] >> (uint32(u.imm) & 31)
			}
		case uSraReg:
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] >> (uint32(R[u.rs2]) & 31)
			}
		case uConst:
			if u.rd != 0 {
				R[u.rd] = u.imm
			}
		case uSetImm, uSetReg:
			b := u.imm
			if u.kind == uSetReg {
				b = R[u.rs2]
			}
			v := int32(0)
			if isa.Cond(u.cond).HoldsInt(R[u.rs1], b) {
				v = 1
			}
			if u.rd != 0 {
				R[u.rd] = v
			}
		case uFSet:
			v := int32(0)
			if isa.Cond(u.cond).HoldsFloat(F[u.rs1], F[u.rs2]) {
				v = 1
			}
			if u.rd != 0 {
				R[u.rd] = v
			}

		case uLwImm, uLwReg:
			st.Loads++
			a := R[u.rs1] + u.imm
			if u.kind == uLwReg {
				a = R[u.rs1] + R[u.rs2]
			}
			if a < 0 || int(a)+4 > len(mem) {
				m.pending = pending
				return 0, m.fastTrap(pc, insts, TrapOOBLoad, "load out of range: %#x", uint32(a))
			}
			if a%isa.WordSize != 0 {
				m.pending = pending
				return 0, m.fastTrap(pc, insts, TrapMisaligned, "misaligned word load: %#x", uint32(a))
			}
			if u.rd != 0 {
				R[u.rd] = int32(binary.LittleEndian.Uint32(mem[a:]))
			}
		case uLbImm, uLbReg:
			st.Loads++
			a := R[u.rs1] + u.imm
			if u.kind == uLbReg {
				a = R[u.rs1] + R[u.rs2]
			}
			if a < 0 || int(a) >= len(mem) {
				m.pending = pending
				return 0, m.fastTrap(pc, insts, TrapOOBLoad, "byte load out of range: %#x", uint32(a))
			}
			if u.rd != 0 {
				R[u.rd] = int32(int8(mem[a]))
			}
		case uSwImm, uSwReg:
			st.Stores++
			a := R[u.rs1] + u.imm
			if u.kind == uSwReg {
				a = R[u.rs1] + R[u.rs2]
			}
			if a < 0 || int(a)+4 > len(mem) {
				m.pending = pending
				return 0, m.fastTrap(pc, insts, TrapOOBStore, "store out of range: %#x", uint32(a))
			}
			if a%isa.WordSize != 0 {
				m.pending = pending
				return 0, m.fastTrap(pc, insts, TrapMisaligned, "misaligned word store: %#x", uint32(a))
			}
			binary.LittleEndian.PutUint32(mem[a:], uint32(R[u.rd]))
		case uSbImm, uSbReg:
			st.Stores++
			a := R[u.rs1] + u.imm
			if u.kind == uSbReg {
				a = R[u.rs1] + R[u.rs2]
			}
			if a < 0 || int(a) >= len(mem) {
				m.pending = pending
				return 0, m.fastTrap(pc, insts, TrapOOBStore, "byte store out of range: %#x", uint32(a))
			}
			mem[a] = byte(R[u.rd])
		case uLfImm, uLfReg:
			st.Loads++
			a := R[u.rs1] + u.imm
			if u.kind == uLfReg {
				a = R[u.rs1] + R[u.rs2]
			}
			if a < 0 || int(a)+8 > len(mem) {
				m.pending = pending
				return 0, m.fastTrap(pc, insts, TrapOOBLoad, "float load out of range: %#x", uint32(a))
			}
			F[u.rd] = isa.FloatFromBits(binary.LittleEndian.Uint64(mem[a:]))
		case uSfImm, uSfReg:
			st.Stores++
			a := R[u.rs1] + u.imm
			if u.kind == uSfReg {
				a = R[u.rs1] + R[u.rs2]
			}
			if a < 0 || int(a)+8 > len(mem) {
				m.pending = pending
				return 0, m.fastTrap(pc, insts, TrapOOBStore, "float store out of range: %#x", uint32(a))
			}
			binary.LittleEndian.PutUint64(mem[a:], isa.FloatBits(F[u.rd]))

		case uFadd:
			F[u.rd] = F[u.rs1] + F[u.rs2]
		case uFsub:
			F[u.rd] = F[u.rs1] - F[u.rs2]
		case uFmul:
			F[u.rd] = F[u.rs1] * F[u.rs2]
		case uFdiv:
			F[u.rd] = F[u.rs1] / F[u.rs2]
		case uFneg:
			F[u.rd] = -F[u.rs1]
		case uFmov:
			F[u.rd] = F[u.rs1]
		case uCvtif:
			F[u.rd] = float64(R[u.rs1])
		case uCvtfi:
			if u.rd != 0 {
				R[u.rd] = int32(F[u.rs1])
			}

		case uTrapExit:
			m.halted = true
			m.status = R[1]
			seqAdv = false

		case uTrapGetc:
			if m.inPos >= len(m.input) {
				R[1] = -1
			} else {
				R[1] = int32(m.input[m.inPos])
				m.inPos++
			}
		case uTrapPutc:
			m.out.WriteByte(byte(R[1]))
		case uTrapPutf:
			m.putFloat(F[1])
		case uTrapBad:
			m.pending = pending
			return 0, m.fastTrap(pc, insts, TrapIllegalInstr, "unknown trap %d", u.imm)

		case uCmpImm, uCmpReg:
			b := u.imm
			if u.kind == uCmpReg {
				b = R[u.rs2]
			}
			m.CC = signOf(R[u.rs1], b)
			m.ccF = false
		case uFcmp:
			a, b := F[u.rs1], F[u.rs2]
			switch {
			case a < b:
				m.CC = -1
			case a > b:
				m.CC = 1
			default:
				m.CC = 0
			}
			m.ccF = true

		default: // uIllegal and any BRM-only op
			m.pending = pending
			return 0, m.fastTrap(pc, insts, TrapIllegalInstr, "baseline cannot execute %v", isa.Op(u.imm))

		case uJump:
			st.UncondJumps++
			prof.taken(pc)
			pending = int(u.tgt)
			pc++
			seqAdv = false
		case uBCond:
			st.CondBranches++
			if isa.Cond(u.cond).HoldsInt(m.CC, 0) {
				st.CondTaken++
				prof.taken(pc)
				pending = int(u.tgt)
			} else {
				prof.notTaken(pc)
			}
			pc++
			seqAdv = false
		case uCall:
			st.Calls++
			prof.taken(pc)
			R[isa.RABase] = u.imm
			pending = int(u.tgt)
			pc++
			seqAdv = false
		case uJalr:
			st.Calls++
			prof.taken(pc)
			target := R[u.rs1]
			R[isa.RABase] = u.imm
			pending = addrToIndex(target)
			pc++
			seqAdv = false
		case uJrRet, uJrJmp:
			pending = addrToIndex(R[u.rs1])
			if pending != -1 {
				if u.kind == uJrRet {
					st.Returns++
				} else {
					st.UncondJumps++
				}
				prof.taken(pc)
			}
			pc++
			seqAdv = false
		}

		if seqAdv && !m.halted {
			if pending != -2 {
				t := pending
				pending = -2
				switch {
				case t == -1:
					m.halted = true
					m.status = R[1]
				case t < 0 || t >= len(ops):
					m.pending = pending
					return 0, m.fastTrap(pc, insts, TrapPCOutOfRange, "jump out of text: index %d", t)
				default:
					prof.edge(pc, t)
					pc = t
				}
			} else {
				pc++
			}
		}

		if insts > limit {
			m.pending = pending
			t := m.fastTrap(pc, insts, TrapStepBudget, "instruction limit exceeded")
			t.Limit = limit
			t.Executed = insts
			return 0, t
		}
		if insts >= nextPoll {
			if err := ctx.Err(); err != nil {
				m.pc, m.pending = pc, pending
				st.Instructions = insts
				return 0, err
			}
			nextPoll = insts + ctxCheckStride
		}
	}
	m.pc, m.pending = pc, pending
	st.Instructions = insts
	return m.status, nil
}

// runFastBRMProf is the profiled twin of Machine.runFastBRM.
func runFastBRMProf(m *Machine, ctx context.Context, prof *BlockProfile) (int32, error) {
	ops := m.dec
	st := &m.Stats
	mem := m.Mem
	R := &m.R
	F := &m.F
	limit := m.MaxInstructions
	insts := st.Instructions
	nextPoll := insts + ctxCheckStride
	pc := m.pc

	for !m.halted {
		if pc < 0 || pc >= len(ops) {
			return 0, m.fastTrap(pc, insts, TrapPCOutOfRange,
				"pc index %d outside text [0,%d)", pc, len(ops))
		}
		u := &ops[pc]
		insts++
		now := insts

		advance := true
		switch u.kind {

		case uNop:
			st.Noops++
		case uAddImm:
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] + u.imm
			}
		case uAddReg:
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] + R[u.rs2]
			}
		case uSubImm:
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] - u.imm
			}
		case uSubReg:
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] - R[u.rs2]
			}
		case uMulImm:
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] * u.imm
			}
		case uMulReg:
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] * R[u.rs2]
			}
		case uDivImm, uDivReg:
			d := u.imm
			if u.kind == uDivReg {
				d = R[u.rs2]
			}
			if d == 0 {
				return 0, m.fastTrap(pc, insts, TrapArithmetic, "division by zero")
			}
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] / d
			}
		case uRemImm, uRemReg:
			d := u.imm
			if u.kind == uRemReg {
				d = R[u.rs2]
			}
			if d == 0 {
				return 0, m.fastTrap(pc, insts, TrapArithmetic, "modulo by zero")
			}
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] % d
			}
		case uAndImm:
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] & u.imm
			}
		case uAndReg:
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] & R[u.rs2]
			}
		case uOrImm:
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] | u.imm
			}
		case uOrReg:
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] | R[u.rs2]
			}
		case uXorImm:
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] ^ u.imm
			}
		case uXorReg:
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] ^ R[u.rs2]
			}
		case uSllImm:
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] << (uint32(u.imm) & 31)
			}
		case uSllReg:
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] << (uint32(R[u.rs2]) & 31)
			}
		case uSrlImm:
			if u.rd != 0 {
				R[u.rd] = int32(uint32(R[u.rs1]) >> (uint32(u.imm) & 31))
			}
		case uSrlReg:
			if u.rd != 0 {
				R[u.rd] = int32(uint32(R[u.rs1]) >> (uint32(R[u.rs2]) & 31))
			}
		case uSraImm:
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] >> (uint32(u.imm) & 31)
			}
		case uSraReg:
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] >> (uint32(R[u.rs2]) & 31)
			}
		case uConst:
			if u.rd != 0 {
				R[u.rd] = u.imm
			}
		case uSetImm, uSetReg:
			b := u.imm
			if u.kind == uSetReg {
				b = R[u.rs2]
			}
			v := int32(0)
			if isa.Cond(u.cond).HoldsInt(R[u.rs1], b) {
				v = 1
			}
			if u.rd != 0 {
				R[u.rd] = v
			}
		case uFSet:
			v := int32(0)
			if isa.Cond(u.cond).HoldsFloat(F[u.rs1], F[u.rs2]) {
				v = 1
			}
			if u.rd != 0 {
				R[u.rd] = v
			}

		case uLwImm, uLwReg:
			st.Loads++
			a := R[u.rs1] + u.imm
			if u.kind == uLwReg {
				a = R[u.rs1] + R[u.rs2]
			}
			if a < 0 || int(a)+4 > len(mem) {
				return 0, m.fastTrap(pc, insts, TrapOOBLoad, "load out of range: %#x", uint32(a))
			}
			if a%isa.WordSize != 0 {
				return 0, m.fastTrap(pc, insts, TrapMisaligned, "misaligned word load: %#x", uint32(a))
			}
			if u.rd != 0 {
				R[u.rd] = int32(binary.LittleEndian.Uint32(mem[a:]))
			}
		case uLbImm, uLbReg:
			st.Loads++
			a := R[u.rs1] + u.imm
			if u.kind == uLbReg {
				a = R[u.rs1] + R[u.rs2]
			}
			if a < 0 || int(a) >= len(mem) {
				return 0, m.fastTrap(pc, insts, TrapOOBLoad, "byte load out of range: %#x", uint32(a))
			}
			if u.rd != 0 {
				R[u.rd] = int32(int8(mem[a]))
			}
		case uSwImm, uSwReg:
			st.Stores++
			a := R[u.rs1] + u.imm
			if u.kind == uSwReg {
				a = R[u.rs1] + R[u.rs2]
			}
			if a < 0 || int(a)+4 > len(mem) {
				return 0, m.fastTrap(pc, insts, TrapOOBStore, "store out of range: %#x", uint32(a))
			}
			if a%isa.WordSize != 0 {
				return 0, m.fastTrap(pc, insts, TrapMisaligned, "misaligned word store: %#x", uint32(a))
			}
			binary.LittleEndian.PutUint32(mem[a:], uint32(R[u.rd]))
		case uSbImm, uSbReg:
			st.Stores++
			a := R[u.rs1] + u.imm
			if u.kind == uSbReg {
				a = R[u.rs1] + R[u.rs2]
			}
			if a < 0 || int(a) >= len(mem) {
				return 0, m.fastTrap(pc, insts, TrapOOBStore, "byte store out of range: %#x", uint32(a))
			}
			mem[a] = byte(R[u.rd])
		case uLfImm, uLfReg:
			st.Loads++
			a := R[u.rs1] + u.imm
			if u.kind == uLfReg {
				a = R[u.rs1] + R[u.rs2]
			}
			if a < 0 || int(a)+8 > len(mem) {
				return 0, m.fastTrap(pc, insts, TrapOOBLoad, "float load out of range: %#x", uint32(a))
			}
			F[u.rd] = isa.FloatFromBits(binary.LittleEndian.Uint64(mem[a:]))
		case uSfImm, uSfReg:
			st.Stores++
			a := R[u.rs1] + u.imm
			if u.kind == uSfReg {
				a = R[u.rs1] + R[u.rs2]
			}
			if a < 0 || int(a)+8 > len(mem) {
				return 0, m.fastTrap(pc, insts, TrapOOBStore, "float store out of range: %#x", uint32(a))
			}
			binary.LittleEndian.PutUint64(mem[a:], isa.FloatBits(F[u.rd]))

		case uFadd:
			F[u.rd] = F[u.rs1] + F[u.rs2]
		case uFsub:
			F[u.rd] = F[u.rs1] - F[u.rs2]
		case uFmul:
			F[u.rd] = F[u.rs1] * F[u.rs2]
		case uFdiv:
			F[u.rd] = F[u.rs1] / F[u.rs2]
		case uFneg:
			F[u.rd] = -F[u.rs1]
		case uFmov:
			F[u.rd] = F[u.rs1]
		case uCvtif:
			F[u.rd] = float64(R[u.rs1])
		case uCvtfi:
			if u.rd != 0 {
				R[u.rd] = int32(F[u.rs1])
			}

		case uTrapExit:
			m.halted = true
			m.status = R[1]
			advance = false

		case uTrapGetc:
			if m.inPos >= len(m.input) {
				R[1] = -1
			} else {
				R[1] = int32(m.input[m.inPos])
				m.inPos++
			}
		case uTrapPutc:
			m.out.WriteByte(byte(R[1]))
		case uTrapPutf:
			m.putFloat(F[1])
		case uTrapBad:
			return 0, m.fastTrap(pc, insts, TrapIllegalInstr, "unknown trap %d", u.imm)

		case uBrCalcAbs:
			st.BrCalcs++
			m.B[u.rd] = breg{addr: u.imm, calcTime: now, valid: true}
		case uBrCalcReg:
			st.BrCalcs++
			m.B[u.rd] = breg{addr: R[u.rs1] + u.imm, calcTime: now, valid: true}
		case uBrLd:
			st.BrCalcs++
			st.Loads++
			a := R[u.rs1] + u.imm
			if a < 0 || int(a)+4 > len(mem) {
				return 0, m.fastTrap(pc, insts, TrapOOBLoad, "load out of range: %#x", uint32(a))
			}
			if a%isa.WordSize != 0 {
				return 0, m.fastTrap(pc, insts, TrapMisaligned, "misaligned word load: %#x", uint32(a))
			}
			v := int32(binary.LittleEndian.Uint32(mem[a:]))
			m.B[u.rd] = breg{addr: v, calcTime: now, valid: true}
		case uCmpBrImm, uCmpBrReg:
			b := u.imm
			if u.kind == uCmpBrReg {
				b = R[u.rs2]
			}
			if isa.Cond(u.cond).HoldsInt(R[u.rs1], b) {
				src := m.B[u.bsrc]
				m.B[isa.RABr] = breg{addr: src.addr, calcTime: src.calcTime, viaCmp: true, valid: true}
			} else {
				m.B[isa.RABr] = breg{addr: seq, calcTime: now, viaCmp: true, valid: true}
			}
		case uFCmpBr:
			if isa.Cond(u.cond).HoldsFloat(F[u.rs1], F[u.rs2]) {
				src := m.B[u.bsrc]
				m.B[isa.RABr] = breg{addr: src.addr, calcTime: src.calcTime, viaCmp: true, valid: true}
			} else {
				m.B[isa.RABr] = breg{addr: seq, calcTime: now, viaCmp: true, valid: true}
			}
		case uMovBr:
			st.BrMoves++
			m.B[u.rd] = m.B[u.bsrc]
		case uMovRB:
			st.BrMoves++
			if u.rd != 0 {
				R[u.rd] = m.B[u.bsrc].addr
			}
		case uMovBR:
			st.BrMoves++
			m.B[u.rd] = breg{addr: R[u.rs1], calcTime: now, isRA: true, valid: true}

		default: // uIllegal and any baseline-only op
			return 0, m.fastTrap(pc, insts, TrapIllegalInstr, "BRM cannot execute %v", isa.Op(u.imm))

		}

		if advance && !m.halted {
			if u.br == isa.PCBr {
				pc++
			} else {
				b := m.B[u.br]
				if !b.valid {
					return 0, m.fastTrap(pc, insts, TrapUninitBranchReg,
						"transfer through uninitialized b[%d]", u.br)
				}
				switch {
				case b.viaCmp:
					st.CondBranches++
				case b.addr == seq:
					// only compares produce the sequential sentinel
				default:
					idx := addrToIndex(b.addr)
					switch {
					case idx == -1:
						// exit to the halt address: not a workload transfer
					case m.isFuncEntry(idx):
						st.Calls++
					case b.isRA:
						st.Returns++
					default:
						st.UncondJumps++
					}
				}
				ret := breg{addr: isa.IndexToAddr(pc) + isa.WordSize, calcTime: now, isRA: true, valid: true}
				if b.addr == seq {
					// Untaken conditional: fall through.
					prof.notTaken(pc)
					m.B[isa.RABr] = ret
					pc++
				} else {
					st.CondTaken += b2i(b.viaCmp)
					idx := addrToIndex(b.addr)
					if idx != -1 {
						dist := now - b.calcTime
						if dist > DistHistMax {
							st.DistHist[DistHistMax]++
						} else if dist >= 0 {
							st.DistHist[dist]++
						}
						if dist >= MinPrefetchDist {
							st.PrefetchHit++
						} else {
							st.PrefetchMiss++
						}
						prof.taken(pc)
						prof.prefetch(pc, dist)
					}
					m.B[isa.RABr] = ret
					switch {
					case idx == -1:
						m.halted = true
						m.status = R[1]
					case idx < 0 || idx >= len(ops):
						return 0, m.fastTrap(pc, insts, TrapPCOutOfRange, "jump out of text: index %d", idx)
					default:
						prof.edge(pc, idx)
						pc = idx
					}
				}
			}
		}

		if insts > limit {
			t := m.fastTrap(pc, insts, TrapStepBudget, "instruction limit exceeded")
			t.Limit = limit
			t.Executed = insts
			return 0, t
		}
		if insts >= nextPoll {
			if err := ctx.Err(); err != nil {
				m.pc = pc
				st.Instructions = insts
				return 0, err
			}
			nextPoll = insts + ctxCheckStride
		}
	}
	m.pc = pc
	st.Instructions = insts
	return m.status, nil
}
