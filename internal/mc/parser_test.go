package mc

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

func parse(t *testing.T, src string) *Unit {
	t.Helper()
	u, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v\nsource:\n%s", err, src)
	}
	return u
}

func TestParseGlobals(t *testing.T) {
	u := parse(t, `
int x;
int y = 3, z = 4;
char buf[128];
char *msg = "hello";
float pi = 3.14;
int grid[2][3] = {{1,2,3},{4,5,6}};
`)
	if len(u.Globals) != 7 {
		t.Fatalf("got %d globals", len(u.Globals))
	}
	if u.Globals[3].Type.Kind != TArray || u.Globals[3].Type.Len != 128 {
		t.Errorf("buf type = %s", u.Globals[3].Type)
	}
	if u.Globals[4].Type.Kind != TPtr {
		t.Errorf("msg type = %s", u.Globals[4].Type)
	}
	g := u.Globals[6]
	if g.Type.Kind != TArray || g.Type.Len != 2 || g.Type.Elem.Len != 3 {
		t.Errorf("grid type = %s", g.Type)
	}
	if len(g.Init.List) != 2 || len(g.Init.List[0].List) != 3 {
		t.Errorf("grid init shape wrong")
	}
}

func TestParseFunction(t *testing.T) {
	u := parse(t, `
int strlen(char *s) {
    int n = 0;
    if (s)
        for (; *s; s++)
            n++;
    return n;
}
`)
	if len(u.Funcs) != 1 {
		t.Fatalf("got %d funcs", len(u.Funcs))
	}
	f := u.Funcs[0]
	if f.Name != "strlen" || len(f.Params) != 1 || f.Params[0].Type.Kind != TPtr {
		t.Errorf("signature wrong: %s(%v)", f.Name, f.Params)
	}
	if len(f.Body.Stmts) != 3 {
		t.Errorf("body has %d statements", len(f.Body.Stmts))
	}
	ifStmt, ok := f.Body.Stmts[1].(*If)
	if !ok {
		t.Fatalf("statement 1 is %T", f.Body.Stmts[1])
	}
	if _, ok := ifStmt.Then.(*For); !ok {
		t.Errorf("then branch is %T", ifStmt.Then)
	}
}

func TestParseArrayParams(t *testing.T) {
	u := parse(t, `void f(int a[], char b[10]) { }`)
	f := u.Funcs[0]
	if f.Params[0].Type.Kind != TPtr || f.Params[1].Type.Kind != TPtr {
		t.Errorf("array params should parse as pointers: %s %s", f.Params[0].Type, f.Params[1].Type)
	}
}

func TestParsePrecedence(t *testing.T) {
	u := parse(t, `int f(void) { return 1 + 2 * 3 == 7 && 4 < 5 | 1; }`)
	ret := u.Funcs[0].Body.Stmts[0].(*Return)
	// Must parse as (((1 + (2*3)) == 7) && ((4<5) | 1))
	and, ok := ret.X.(*Binary)
	if !ok || and.Op != "&&" {
		t.Fatalf("top = %T %v", ret.X, and)
	}
	eq := and.L.(*Binary)
	if eq.Op != "==" {
		t.Errorf("left of && = %s", eq.Op)
	}
	add := eq.L.(*Binary)
	if add.Op != "+" {
		t.Errorf("left of == = %s", add.Op)
	}
	mul := add.R.(*Binary)
	if mul.Op != "*" {
		t.Errorf("right of + = %s", mul.Op)
	}
	or := and.R.(*Binary)
	if or.Op != "|" {
		t.Errorf("right of && = %s", or.Op)
	}
}

func TestParseUnaryAndPostfix(t *testing.T) {
	u := parse(t, `int f(int x) { int *p; p = &x; return -*p + x++ - --x; }`)
	stmts := u.Funcs[0].Body.Stmts
	if len(stmts) != 3 {
		t.Fatalf("got %d stmts", len(stmts))
	}
	as := stmts[1].(*ExprStmt).X.(*Assign)
	if _, ok := as.R.(*Unary); !ok {
		t.Errorf("&x is %T", as.R)
	}
}

func TestParseTernaryRightAssoc(t *testing.T) {
	u := parse(t, `int f(int a) { return a ? 1 : a ? 2 : 3; }`)
	ret := u.Funcs[0].Body.Stmts[0].(*Return)
	top := ret.X.(*CondExpr)
	if _, ok := top.F.(*CondExpr); !ok {
		t.Errorf("false arm should be nested ternary, is %T", top.F)
	}
}

func TestParseSwitch(t *testing.T) {
	u := parse(t, `
int f(int c) {
    switch (c) {
    case 1: return 10;
    case -2: return 20;
    case 'x': return 30;
    default: return 0;
    }
}
`)
	sw := u.Funcs[0].Body.Stmts[0].(*Switch)
	if len(sw.Cases) != 4 {
		t.Fatalf("got %d cases", len(sw.Cases))
	}
	if sw.Cases[1].Value != -2 {
		t.Errorf("negative case = %d", sw.Cases[1].Value)
	}
	if sw.Cases[2].Value != 'x' {
		t.Errorf("char case = %d", sw.Cases[2].Value)
	}
	if !sw.Cases[3].IsDefault {
		t.Error("default not recognized")
	}
}

func TestParseLoops(t *testing.T) {
	u := parse(t, `
void f(void) {
    int i;
    while (1) break;
    do i = 0; while (i);
    for (i = 0; i < 10; i++) continue;
    for (int j = 0; j < 5; j++) ;
    for (;;) break;
}
`)
	stmts := u.Funcs[0].Body.Stmts
	if _, ok := stmts[1].(*While); !ok {
		t.Errorf("stmt 1 is %T", stmts[1])
	}
	if _, ok := stmts[2].(*DoWhile); !ok {
		t.Errorf("stmt 2 is %T", stmts[2])
	}
	f3 := stmts[3].(*For)
	if f3.Init == nil || f3.Cond == nil || f3.Post == nil {
		t.Error("for clauses missing")
	}
	f4 := stmts[4].(*For)
	if _, ok := f4.Init.(*DeclStmt); !ok {
		t.Errorf("for-init decl is %T", f4.Init)
	}
	f5 := stmts[5].(*For)
	if f5.Init != nil || f5.Cond != nil || f5.Post != nil {
		t.Error("empty for clauses should be nil")
	}
}

func TestParseCasts(t *testing.T) {
	u := parse(t, `int f(float x) { char *p; p = (char*)0; return (int)x + *(char*)p; }`)
	if u == nil {
		t.Fatal("nil unit")
	}
	ret := u.Funcs[0].Body.Stmts[2].(*Return)
	add := ret.X.(*Binary)
	if _, ok := add.L.(*Cast); !ok {
		t.Errorf("(int)x is %T", add.L)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"int;",
		"int f( { }",
		"int f(void) { return }",
		"int f(void) { if }",
		"int f(void) { x = ; }",
		"int a[0];",
		"int f(void) { switch (1) { foo: ; } }",
		"int f(void) { for (int i = 0 i < 3; ) ; }",
		"int f(void) }",
		"int f(void) {",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseCompoundAssign(t *testing.T) {
	u := parse(t, `void f(int x) { x += 1; x <<= 2; x %= 3; }`)
	ops := []string{"+=", "<<=", "%="}
	for i, s := range u.Funcs[0].Body.Stmts {
		a := s.(*ExprStmt).X.(*Assign)
		if a.Op != ops[i] {
			t.Errorf("stmt %d op = %s, want %s", i, a.Op, ops[i])
		}
	}
}

// TestParseNestingBudget: every construct that nests counts against
// MaxNesting, the budget rejects with a positioned *Error, and a source
// just inside the budget still parses.
func TestParseNestingBudget(t *testing.T) {
	fn := func(body string) string { return "int main(void) { " + body + " }" }
	chain := func(n int) string { return "return 1" + strings.Repeat(" + 1", n) + ";" }
	parens := func(n int) string {
		return "return " + strings.Repeat("(", n) + "1" + strings.Repeat(")", n) + ";"
	}
	for _, c := range []struct {
		name, src string
	}{
		{"parens", fn(parens(MaxNesting))},
		{"chain", fn(chain(MaxNesting))},
		{"unary", fn("return " + strings.Repeat("- ", MaxNesting) + "1;")},
		{"decrements", fn("int x; return " + strings.Repeat("--", MaxNesting) + "x;")},
		{"assignments", fn("int x; " + strings.Repeat("x = ", MaxNesting) + "1; return x;")},
		{"ternaries", fn("return " + strings.Repeat("1 ? 1 : ", MaxNesting) + "1;")},
		{"blocks", fn(strings.Repeat("{", MaxNesting+1) + strings.Repeat("}", MaxNesting+1) + " return 0;")},
		{"index", fn("int a[1]; return a" + strings.Repeat("[0]", MaxNesting) + ";")},
		{"pointers", "int " + strings.Repeat("*", MaxNesting+1) + "p; int main(void) { return 0; }"},
		{"dims", "int a" + strings.Repeat("[1]", MaxNesting+1) + "; int main(void) { return 0; }"},
		{"initializer", "int a[1] = " + strings.Repeat("{", MaxNesting+1) + "1" +
			strings.Repeat("}", MaxNesting+1) + "; int main(void) { return 0; }"},
	} {
		_, err := Parse(c.src)
		var e *Error
		if !errors.As(err, &e) || !strings.Contains(e.Msg, fmt.Sprintf("nesting exceeds %d", MaxNesting)) {
			t.Errorf("%s: err = %v, want a positioned nesting error", c.name, err)
			continue
		}
		if e.Line != 1 || e.Col <= 1 {
			t.Errorf("%s: error at %d:%d, want the offending token's position", c.name, e.Line, e.Col)
		}
	}
	// Well inside the budget: the enclosing function, statement and
	// expression levels leave room for this much explicit nesting.
	for _, src := range []string{fn(parens(MaxNesting - 8)), fn(chain(MaxNesting - 8))} {
		if _, err := Parse(src); err != nil {
			t.Errorf("source inside the budget rejected: %v", err)
		}
	}
}
