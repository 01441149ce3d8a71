package positdebug_test

import (
	"fmt"

	positdebug "positdebug"
	"positdebug/internal/obs"
	"positdebug/internal/shadow"
)

// Example compiles the paper's Figure 2 program, runs it under PositDebug,
// and prints the detections.
func Example() {
	prog, err := positdebug.Compile(`
func main(): i64 {
	var a: p32 = 18309067625725952.0;
	var b: p32 = 3246642954240.0;
	var c: p32 = 143923904.0;
	var disc: p32 = b * b - 4.0 * a * c;
	if (disc > 0.0) { return 2; }
	if (disc == 0.0) { return 1; }
	return 0;
}`)
	if err != nil {
		panic(err)
	}
	res, err := prog.Exec("main")
	if err != nil {
		panic(err)
	}
	fmt.Println("roots found:", res.I64())
	fmt.Println("cancellation detected:", res.Summary.Has(shadow.KindCancellation))
	fmt.Println("branch flips:", res.Summary.BranchFlips)
	// Output:
	// roots found: 1
	// cancellation detected: true
	// branch flips: 1
}

// ExampleProgram_Exec shows the functional-options API: shadow execution
// with a custom configuration and a bounded event trace.
func ExampleProgram_Exec() {
	prog, err := positdebug.Compile(`
func main(): p32 {
	var big: p32 = 16777216.0;
	var r: p32 = (big + 1.0) - big;
	return r;
}`)
	if err != nil {
		panic(err)
	}
	cfg := shadow.DefaultConfig()
	cfg.ErrBitsThreshold = 10
	log := obs.NewLog(64) // keeps only the most recent events
	res, err := prog.Exec("main", positdebug.WithShadow(cfg), positdebug.WithTrace(log))
	if err != nil {
		panic(err)
	}
	fmt.Println("result:", res.P32())
	for _, e := range log.Events() {
		if e.Kind == obs.EvDetect && e.Detect == "catastrophic-cancellation" {
			fmt.Println("detected:", e.Detect)
			break
		}
	}
	// Output:
	// result: 0
	// detected: catastrophic-cancellation
}

// ExampleRefactorToPosit rewrites an FP program to posits, like the
// paper's clang refactorer.
func ExampleRefactorToPosit() {
	out, err := positdebug.RefactorToPosit(`func scale(x: f64): f64 { return x * 2.5; }`)
	if err != nil {
		panic(err)
	}
	fmt.Print(out)
	// Output:
	// func scale(x: p32): p32 {
	// 	return x * 2.5;
	// }
}

// ExampleProgram_Run executes a program without instrumentation (the
// baseline of every measurement).
func ExampleProgram_Run() {
	prog, _ := positdebug.Compile(`
func main(): p32 {
	qclear();
	qmadd(1.5, 2.0);
	qadd(0.25);
	return qround_p32();
}`)
	res, _ := prog.Run("main")
	fmt.Println(res.P32())
	// Output:
	// 3.25
}
