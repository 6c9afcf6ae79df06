package driver

import (
	"context"
	"errors"
	"fmt"
	"os"
	osexec "os/exec"
	"strings"
	"testing"
	"time"

	"branchreg/internal/isa"
	"branchreg/internal/mc"
)

// hostileSources are front-door shapes that once killed the process
// with a fatal stack overflow in the checker's recursion, which no
// recover() can catch. Each is about 1 MiB, under brserve's source
// limit.
func hostileSources() map[string]string {
	return map[string]string{
		"parens": "int main(void) { return " + strings.Repeat("(", 500_000) + "1" +
			strings.Repeat(")", 500_000) + "; }",
		"chain": "int main(void) { return 1" + strings.Repeat("+1", 500_000) + "; }",
		"unary": "int main(void) { return " + strings.Repeat("-", 1_000_000) + "1; }",
	}
}

// hostileBudget is how long compiling one hostile source may take.
const hostileBudget = 5 * time.Second

const hostileShapeEnv = "BRANCHREG_HOSTILE_SHAPE"

// TestHostileSourcesRejected compiles each hostile source in a child
// process, so that a regression to the fatal stack overflow fails this
// test instead of killing the test binary. The child must report a
// positioned compile error (*mc.Error) within hostileBudget.
func TestHostileSourcesRejected(t *testing.T) {
	if shape := os.Getenv(hostileShapeEnv); shape != "" {
		compileHostile(shape)
		return
	}
	for name := range hostileSources() {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			cmd := osexec.CommandContext(ctx, os.Args[0], "-test.run=^TestHostileSourcesRejected$")
			cmd.Env = append(os.Environ(), hostileShapeEnv+"="+name)
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("child compiling the %s source failed: %v\n%.2000s", name, err, out)
			}
			if !strings.Contains(string(out), "typed compile error") {
				t.Fatalf("child did not report a typed compile error:\n%.2000s", out)
			}
		})
	}
}

// compileHostile is the child half of TestHostileSourcesRejected. It
// exits the process with its verdict.
func compileHostile(shape string) {
	src, ok := hostileSources()[shape]
	if !ok {
		fmt.Printf("unknown shape %q\n", shape)
		os.Exit(2)
	}
	start := time.Now()
	p, err := Compile(context.Background(), src, isa.BranchReg, DefaultOptions())
	elapsed := time.Since(start)
	var e *mc.Error
	switch {
	case p != nil || !errors.As(err, &e):
		fmt.Printf("want a *mc.Error, got program %v and error %v\n", p != nil, err)
		os.Exit(1)
	case elapsed > hostileBudget:
		fmt.Printf("compile took %v, budget %v\n", elapsed, hostileBudget)
		os.Exit(1)
	}
	fmt.Printf("typed compile error in %v: %v\n", elapsed, err)
	os.Exit(0)
}
