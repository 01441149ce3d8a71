// Package backend names the execution backends the interpreter machine can
// run a module on: the tree-walking interpreter over internal/ir (the
// reference semantics and differential-testing oracle) and the flat-bytecode
// VM with fused shadow superinstructions (internal/bytecode). Everything
// above the machine — Exec options, campaign configs, CLI flags — selects a
// backend through this one enum so the two execution paths never fork the
// public API.
package backend

import "fmt"

// Kind selects an execution backend.
type Kind uint8

const (
	// VM compiles the module to a flat bytecode chunk (internal/bytecode)
	// and executes it in a threaded-dispatch loop with fused op+shadow
	// superinstructions. It is the zero value, so every run that names no
	// backend takes it.
	VM Kind = iota
	// Treewalk executes ir.Module directly, one instruction struct at a
	// time. It is the reference implementation: simplest, most debuggable,
	// and the oracle the VM is differentially tested against. Select it
	// with -backend=treewalk.
	Treewalk
)

// Default is the backend used when nothing selects one explicitly: the VM,
// whose observable behavior the differential suite holds byte-identical
// to the tree-walker's.
const Default = VM

func (k Kind) String() string {
	switch k {
	case Treewalk:
		return "treewalk"
	case VM:
		return "vm"
	default:
		return fmt.Sprintf("backend(%d)", uint8(k))
	}
}

// Parse maps a flag value to a Kind. The empty string selects Default, so
// CLIs can declare -backend with an empty default and stay stable if the
// project default ever changes.
func Parse(s string) (Kind, error) {
	switch s {
	case "", "default":
		return Default, nil
	case "treewalk", "tree", "interp":
		return Treewalk, nil
	case "vm", "bytecode":
		return VM, nil
	default:
		return Default, fmt.Errorf("unknown backend %q (want treewalk or vm)", s)
	}
}

// Kinds lists the selectable backends in a stable order (benchmark and
// comparison harnesses iterate it).
func Kinds() []Kind { return []Kind{Treewalk, VM} }
