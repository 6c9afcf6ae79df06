package guard

import "time"

// The circuit breaker is per (workload class, engine tier). Its job is
// containment: once a tier has proven unreliable for a class, stop
// feeding it requests (each failed attempt costs a wasted execution and
// a recovered panic) and pin the class to the next tier down until a
// half-open probe shows the tier healthy again.
//
//	closed ──threshold consecutive failures──► open
//	open ──cooldown elapsed, next request──► half-open (that request probes)
//	half-open ──probe succeeds──► closed
//	half-open ──probe fails──► open (fresh cooldown)
//
// A shadow-verification mismatch skips the counting and trips the
// breaker straight to open (quarantine): a wrong answer is categorically
// worse than a crash, because nothing downstream would have noticed.
//
// The supervisor keeps a breaker only while it carries state: a key
// with no entry is closed with no failures, and an entry that returns
// to that state is dropped. So traffic that brings a new class with
// every request (new source) leaves no breakers behind unless its tiers
// fail.

type breakerKey struct {
	class string
	tier  string
}

type breakerState int

const (
	stClosed breakerState = iota
	stOpen
	stHalfOpen
)

// breaker is one (class, tier) circuit. Its methods run under the
// supervisor's mutex, which also guards the map holding it; the
// supervisor owns transition metrics and incident recording, keyed off
// the boolean "a transition happened" returns.
type breaker struct {
	state   breakerState
	fails   int       // consecutive failures while closed
	until   time.Time // when an open breaker may probe
	probing bool      // a half-open probe is in flight
}

type admitDecision int

const (
	admitYes admitDecision = iota
	admitSkip
	admitProbe
)

// admit decides what this request may do with the breaker's tier:
// execute normally (closed), skip to the next tier (open, or another
// probe already in flight), or execute as the half-open probe.
func (b *breaker) admit(now time.Time) admitDecision {
	switch b.state {
	case stClosed:
		return admitYes
	case stOpen:
		if now.Before(b.until) {
			return admitSkip
		}
		b.state = stHalfOpen
		b.probing = true
		return admitProbe
	default: // stHalfOpen
		if b.probing {
			return admitSkip
		}
		b.probing = true
		return admitProbe
	}
}

// success records a healthy execution. It returns true when this was
// the half-open probe that closed the breaker.
func (b *breaker) success(probe bool) bool {
	if probe {
		b.probing = false
	}
	if b.state == stHalfOpen && probe {
		b.state = stClosed
		b.fails = 0
		return true
	}
	if b.state == stClosed {
		b.fails = 0
	}
	return false
}

// failure records a tier fault. It returns true when the breaker
// transitioned to open — either the threshold'th consecutive failure
// while closed, or a failed half-open probe.
func (b *breaker) failure(now time.Time, probe bool, threshold int, cooldown time.Duration) bool {
	if probe {
		b.probing = false
	}
	switch b.state {
	case stHalfOpen:
		if !probe {
			return false // a stale pre-transition failure; the probe decides
		}
		b.state = stOpen
		b.until = now.Add(cooldown)
		return true
	case stClosed:
		b.fails++
		if b.fails < threshold {
			return false
		}
		b.state = stOpen
		b.until = now.Add(cooldown)
		return true
	default: // stOpen: concurrent failures after the transition
		return false
	}
}

// trip force-opens the breaker (shadow-mismatch quarantine). It returns
// true when the breaker was not already open.
func (b *breaker) trip(now time.Time, cooldown time.Duration) bool {
	was := b.state
	b.state = stOpen
	b.until = now.Add(cooldown)
	b.probing = false
	b.fails = 0
	return was != stOpen
}

// isClosed reports whether the breaker is in its healthy state.
func (b *breaker) isClosed() bool {
	return b.state == stClosed
}

// idle reports whether the breaker is indistinguishable from a fresh
// one: closed, no failures counted, no probe in flight.
func (b *breaker) idle() bool {
	return b.state == stClosed && b.fails == 0 && !b.probing
}
