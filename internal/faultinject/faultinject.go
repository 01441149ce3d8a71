// Package faultinject turns PositDebug from a passive debugger into an
// active resilience-analysis tool: a deterministic fault injector that
// plugs into the machine's interp.Injector seam and corrupts the program's
// architectural values at configurable sites, plus
// a campaign runner that sweeps faults across workloads and classifies
// each run's outcome with the shadow oracle — masked, silent data
// corruption, detected, or crashed/hung.
//
// Everything is driven by a seeded splitmix64 PRNG, so a campaign is
// exactly reproducible: same seed + same fault model ⇒ byte-identical
// fault schedule and identical outcome classification, on any platform
// and Go release.
package faultinject

import (
	"fmt"
	"math"

	"positdebug/internal/interp"
	"positdebug/internal/ir"
	"positdebug/internal/obs"
)

// Kind selects the corruption applied at an injection site.
type Kind uint8

// Fault kinds.
const (
	// BitFlip flips one bit of the value (the classic soft-error model).
	BitFlip Kind = iota
	// MultiBitFlip flips Model.FlipBits distinct bits (burst errors).
	MultiBitFlip
	// StuckNaR forces the value to NaR (posits) or quiet NaN (floats).
	StuckNaR
	// Saturate forces the value to ±maxpos (posits) or ±MaxFloat (floats),
	// keeping the original sign — the silent-overflow model.
	Saturate
)

var kindNames = [...]string{"bitflip", "multiflip", "nar", "saturate"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// KindByName parses a fault-kind name.
func KindByName(s string) (Kind, error) {
	for i, n := range kindNames {
		if n == s {
			return Kind(i), nil
		}
	}
	return 0, fmt.Errorf("faultinject: unknown fault kind %q (want bitflip|multiflip|nar|saturate)", s)
}

// OpClass is a bitmask of instruction classes eligible for injection.
type OpClass uint32

// Instruction classes. Register moves and comparisons are deliberately not
// injectable: corrupting them would make the shadow runtime re-seed its
// metadata from the corrupted value and blind the oracle. Loads, stores
// and call returns carry the same hazard, so the machine announces every
// corruption to hooks implementing interp.InjectionObserver, which lets
// the shadow runtime flag the divergence instead of resyncing.
const (
	ClassArith OpClass = 1 << iota // binary/unary/fma/quire-round results
	ClassConst                     // literal materialization
	ClassCast                      // numeric conversions
	ClassLoad                      // values arriving from memory
	ClassStore                     // values departing to memory
	ClassCall                      // values returned by calls

	ClassAll = ClassArith | ClassConst | ClassCast | ClassLoad | ClassStore | ClassCall
)

var classNames = map[string]OpClass{
	"arith": ClassArith, "const": ClassConst, "cast": ClassCast,
	"load": ClassLoad, "store": ClassStore, "call": ClassCall, "all": ClassAll,
}

// ClassByName parses a comma-separated class list ("arith,load,store").
func ClassByName(s string) (OpClass, error) {
	var c OpClass
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			name := s[start:i]
			start = i + 1
			if name == "" {
				continue
			}
			cl, ok := classNames[name]
			if !ok {
				return 0, fmt.Errorf("faultinject: unknown op class %q", name)
			}
			c |= cl
		}
	}
	if c == 0 {
		c = ClassAll
	}
	return c, nil
}

func classOf(op ir.Op) OpClass {
	switch op {
	case ir.OpShadowBin, ir.OpShadowUn, ir.OpShadowFMA, ir.OpShadowQVal:
		return ClassArith
	case ir.OpShadowConst:
		return ClassConst
	case ir.OpShadowCast:
		return ClassCast
	case ir.OpShadowLoad:
		return ClassLoad
	case ir.OpShadowStore:
		return ClassStore
	case ir.OpShadowPostCall:
		return ClassCall
	default:
		return 0
	}
}

// Model describes what to inject and where. The zero value injects
// nothing; set Occurrence or Rate to arm it.
type Model struct {
	// Kind selects the corruption.
	Kind Kind
	// FlipBits is the number of distinct bits MultiBitFlip flips
	// (default 2).
	FlipBits int
	// BitPos pins the flipped bit position; −1 draws it from the PRNG
	// (per injection), which is how bit-position sweeps randomize.
	BitPos int
	// Ops restricts injection to instruction classes (0 = ClassAll).
	Ops OpClass
	// InstID, when positive, restricts injection to one static
	// instruction id (0 or negative = any).
	InstID int32
	// Occurrence, when positive, injects exactly at the k-th eligible
	// dynamic event (1-based) — the deterministic single-fault mode
	// campaigns sweep over.
	Occurrence int64
	// Rate, used when Occurrence is 0, is the per-event injection
	// probability (Bernoulli per eligible event).
	Rate float64
	// MaxInjections caps injections per run (0 = unlimited for Rate mode,
	// 1 for Occurrence mode by construction).
	MaxInjections int
}

func (m Model) ops() OpClass {
	if m.Ops == 0 {
		return ClassAll
	}
	return m.Ops
}

// Record is one injected fault, in schedule order.
type Record struct {
	Seq    int64  `json:"seq"`    // 1-based index among eligible events
	InstID int32  `json:"inst"`   // static instruction id
	Op     string `json:"op"`     // shadow opcode name
	Type   string `json:"type"`   // value type
	Bit    int    `json:"bit"`    // flipped bit (−1 for nar/saturate)
	Before uint64 `json:"before"` // bits before corruption
	After  uint64 `json:"after"`  // bits after corruption
}

// splitmix64 is a tiny, platform-stable PRNG: unlike math/rand, its stream
// is fixed by this file, so schedules replay identically across Go
// releases.
type splitmix64 struct{ state uint64 }

func (s *splitmix64) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 returns a uniform value in [0, 1).
func (s *splitmix64) float64() float64 {
	return float64(s.next()>>11) / (1 << 53)
}

// intn returns a uniform value in [0, n).
func (s *splitmix64) intn(n int) int {
	return int(s.next() % uint64(n))
}

// Mix derives a per-run seed from a campaign seed and a run index — the
// documented way to vary faults across a sweep while keeping the whole
// campaign a pure function of one seed.
func Mix(seed int64, run int) int64 {
	s := splitmix64{state: uint64(seed) ^ (uint64(run)+1)*0xd1342543de82ef95}
	return int64(s.next())
}

// Injector is a deterministic fault injector implementing the machine's
// interp.Injector seam (attach it with positdebug.WithInjector or
// interp.Machine.Injector). The machine calls Reset at every run start,
// which re-seeds the PRNG, so two runs of the same machine replay the same
// schedule.
type Injector struct {
	model Model
	seed  int64

	rng        splitmix64
	candidates int64
	injected   int
	schedule   []Record

	// CountOnly makes the injector observe eligible events without
	// corrupting anything — the calibration pass campaigns use to size
	// their occurrence sweeps.
	CountOnly bool

	// Events, when set, receives one obs.EvInject event per injected fault,
	// in schedule order — interleaved with the shadow runtime's detection
	// events when both share a sink.
	Events obs.Sink
}

var _ interp.Injector = (*Injector)(nil)

// NewInjector returns an injector for the fault model, seeded for
// determinism.
func NewInjector(model Model, seed int64) *Injector {
	if model.FlipBits <= 0 {
		model.FlipBits = 2
	}
	j := &Injector{model: model, seed: seed}
	j.Reset()
	return j
}

// Reset implements interp.Injector: it re-seeds the PRNG and clears the
// schedule, so a rerun (or a precision-degraded retry) replays the
// identical fault schedule.
func (j *Injector) Reset() {
	j.rng = splitmix64{state: uint64(j.seed) ^ 0x5851f42d4c957f2d}
	j.candidates = 0
	j.injected = 0
	j.schedule = j.schedule[:0]
}

// Candidates reports how many eligible events the last run saw until the
// injector was spent; a CountOnly injector, never spent, sees them all.
func (j *Injector) Candidates() int64 { return j.candidates }

// Spent implements interp.Injector: a single-fault injector is spent once
// it has fired, a capped one once it reaches MaxInjections, and a
// CountOnly or uncapped rate-mode injector never is.
func (j *Injector) Spent() bool {
	if j.CountOnly {
		return false
	}
	return j.model.Occurrence > 0 && j.injected > 0 ||
		j.model.MaxInjections > 0 && j.injected >= j.model.MaxInjections
}

// SaveCheckpoint implements interp.Checkpointer: an injector's part of a
// checkpoint is its candidate count.
func (j *Injector) SaveCheckpoint() (any, bool) { return j.candidates, true }

// RestoreCheckpoint implements interp.Checkpointer. Only a single-site
// injector (Occurrence mode) takes a count: before its site its state is
// nothing but the count, because it draws from its PRNG only when it
// hits. A count that has already reached the site does not fit.
func (j *Injector) RestoreCheckpoint(state any) bool {
	n, ok := state.(int64)
	if !ok || j.CountOnly || j.model.Occurrence <= 0 || n >= j.model.Occurrence {
		return false
	}
	j.candidates = n
	return true
}

// Schedule returns the faults injected by the last run, in order.
func (j *Injector) Schedule() []Record { return j.schedule }

// Mutate implements interp.Injector: it decides, deterministically, whether
// this event is an injection site and corrupts the bits accordingly.
func (j *Injector) Mutate(id int32, op ir.Op, typ ir.Type, bits uint64) (uint64, bool) {
	if !typ.IsNumeric() {
		return 0, false
	}
	cl := classOf(op)
	if cl == 0 || cl&j.model.ops() == 0 {
		return 0, false
	}
	if j.model.InstID > 0 && id != j.model.InstID {
		return 0, false
	}
	j.candidates++
	if j.CountOnly {
		return 0, false
	}
	if j.model.MaxInjections > 0 && j.injected >= j.model.MaxInjections {
		return 0, false
	}
	var hit bool
	if j.model.Occurrence > 0 {
		hit = j.candidates == j.model.Occurrence
	} else if j.model.Rate > 0 {
		hit = j.rng.float64() < j.model.Rate
	}
	if !hit {
		return 0, false
	}
	after, bit := j.corrupt(typ, bits)
	j.injected++
	j.schedule = append(j.schedule, Record{
		Seq: j.candidates, InstID: id, Op: op.String(), Type: typ.String(),
		Bit: bit, Before: bits, After: after,
	})
	if j.Events != nil {
		e := obs.NewEvent(obs.EvInject)
		e.Inst = id
		e.Op = op.String()
		e.Bit = bit
		e.Before = fmt.Sprintf("0x%x", bits)
		e.After = fmt.Sprintf("0x%x", after)
		j.Events.Emit(e)
	}
	return after, true
}

// corrupt applies the model's corruption to a value of the given type.
func (j *Injector) corrupt(typ ir.Type, bits uint64) (after uint64, bit int) {
	width := int(typ.Size()) * 8
	switch j.model.Kind {
	case BitFlip:
		b := j.model.BitPos
		if b < 0 || b >= width {
			b = j.rng.intn(width)
		}
		return bits ^ (1 << uint(b)), b
	case MultiBitFlip:
		n := j.model.FlipBits
		if n > width {
			n = width
		}
		var mask uint64
		for popcount(mask) < n {
			mask |= 1 << uint(j.rng.intn(width))
		}
		return bits ^ mask, -1
	case StuckNaR:
		return narBits(typ), -1
	case Saturate:
		return saturateBits(typ, bits), -1
	default:
		return bits, -1
	}
}

func popcount(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// narBits is the exceptional value of the type: posit NaR or quiet NaN.
func narBits(typ ir.Type) uint64 {
	switch typ {
	case ir.F32:
		return uint64(math.Float32bits(float32(math.NaN())))
	case ir.F64:
		return math.Float64bits(math.NaN())
	default:
		return uint64(typ.PositConfig().NaR())
	}
}

// saturateBits clamps the value to the type's largest magnitude, keeping
// the sign.
func saturateBits(typ ir.Type, bits uint64) uint64 {
	switch typ {
	case ir.F32:
		v := math.Float32bits(math.MaxFloat32)
		if bits&(1<<31) != 0 {
			v |= 1 << 31
		}
		return uint64(v)
	case ir.F64:
		v := math.Float64bits(math.MaxFloat64)
		if bits&(1<<63) != 0 {
			v |= 1 << 63
		}
		return v
	default:
		cfg := typ.PositConfig()
		maxpos := uint64(cfg.MaxPos())
		signBit := uint64(1) << (cfg.N - 1)
		if bits&signBit != 0 {
			// Negative posits are two's complements within N bits.
			return (-maxpos) & cfg.Mask()
		}
		return maxpos
	}
}
