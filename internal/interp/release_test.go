package interp

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"positdebug/internal/backend"
	"positdebug/internal/ir"
)

// dirtySrc dirties globals and a deep stack. Its last global is an f32, so
// big[300] is an 8-byte store straddling the end of the globals segment:
// half of it lands in the stack region.
const dirtySrc = `
var a: [2]f64;
var b: f32;
var big: [300]i64;
var tail: f32;

func deep(d: i64, boom: bool): i64 {
	var pad: [16]i64;
	for (var i: i64 = 0; i < 16; i += 1) {
		pad[i] = d * 16 + i + 1;
	}
	if (d <= 0) {
		if (boom) {
			big[-100000] = 1;
		}
		return pad[0];
	}
	return deep(d - 1, boom) + pad[d % 16];
}

func fill() {
	for (var i: i64 = 0; i < 300; i += 1) {
		big[i] = -1 - i;
	}
	big[300] = -1;
	a[1] = 1.5;
	b = 2.5;
	tail = 3.5;
}

func main(): i64 {
	fill();
	return deep(100, false);
}

func trap(): i64 {
	fill();
	return deep(60, true);
}

func peek(): i64 {
	return big[300];
}
`

// drainImages empties the free list so a test sees only its own images.
func drainImages() {
	images.Lock()
	images.free = nil
	images.Unlock()
}

func freeImages() int {
	images.Lock()
	defer images.Unlock()
	return len(images.free)
}

// TestReleasedImageIsZero checks the free list's invariant: an image is
// zero up to its capacity once released, after a VM run, a tree-walk run
// and a run that trapped deep in its recursion — and the next machine
// gets it back at exactly the length a fresh one would have.
func TestReleasedImageIsZero(t *testing.T) {
	mod := compile(t, dirtySrc)
	for _, tc := range []struct {
		name string
		k    backend.Kind
		fn   string
	}{
		{"vm", backend.VM, "main"},
		{"treewalk", backend.Treewalk, "main"},
		{"vm-trap", backend.VM, "trap"},
		{"treewalk-trap", backend.Treewalk, "trap"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			drainImages()
			m := New(mod)
			m.Backend = tc.k
			_, err := m.Run(tc.fn)
			var trap *Trap
			if errors.As(err, &trap) != (tc.fn == "trap") {
				t.Fatalf("run %s: %v", tc.fn, err)
			}
			img := m.mem
			if m.lowWater >= uint32(len(img))-4096 {
				t.Fatalf("the run left the stack clean (lowWater %d of %d): nothing to check", m.lowWater, len(img))
			}
			m.Release()
			m.Release() // a second call must not list the image twice
			if m.mem != nil || freeImages() != 1 {
				t.Fatalf("Release kept the image or did not list it (%d free)", freeImages())
			}
			full := img[:cap(img)]
			for i, b := range full {
				if b != 0 {
					t.Fatalf("byte %d of %d (globals end at %d) is %#x after Release",
						i, len(full), mod.GlobalBase+mod.GlobalSize, b)
				}
			}
			again := New(mod)
			if &again.mem[0] != &img[0] || len(again.mem) != len(img) {
				t.Fatalf("New did not reuse the released image at its length: len %d, want %d", len(again.mem), len(img))
			}
			// The recycled image runs exactly like a fresh one.
			again.Backend = tc.k
			v, err := again.Run("main")
			if err != nil {
				t.Fatal(err)
			}
			fresh := New(mod)
			fresh.mem = make([]byte, len(img))
			want, _ := fresh.Run("main")
			if v != want {
				t.Fatalf("recycled image result %d, fresh %d", v, want)
			}
		})
	}
}

// TestWarmRunAfterStraddlingStore checks that the 8-byte store straddling
// the end of the globals is cleared before the machine's next run, on
// both backends: the stack half of it must count as dirty.
func TestWarmRunAfterStraddlingStore(t *testing.T) {
	mod := compile(t, dirtySrc)
	eachBackend(t, func(t *testing.T, k backend.Kind) {
		m := New(mod)
		m.Backend = k
		if _, err := m.Run("main"); err != nil {
			t.Fatal(err)
		}
		if v, err := m.Run("peek"); err != nil || v != 0 {
			t.Fatalf("second run read %#x (%v) across the end of the globals, want 0", v, err)
		}
	})
}

// TestImageFreeListBounds checks the list's two bounds: it keeps at most
// GOMAXPROCS images, and an image too small for the module is dropped in
// favour of a fresh allocation.
func TestImageFreeListBounds(t *testing.T) {
	drainImages()
	mod := compile(t, dirtySrc)
	procs := runtime.GOMAXPROCS(0)
	ms := make([]*Machine, procs+2)
	for i := range ms {
		ms[i] = New(mod)
	}
	for _, m := range ms {
		m.Release()
	}
	if n := freeImages(); n != procs {
		t.Fatalf("free list holds %d images, want GOMAXPROCS=%d", n, procs)
	}

	drainImages()
	New(mod).Release()
	huge := compile(t, `var h: [40000]f64; func main(): f64 { h[39999] = 1.0; return h[39999]; }`)
	m := New(huge)
	if n := freeImages(); n != 0 {
		t.Fatalf("the too-small image is still listed (%d free)", n)
	}
	if want := (huge.GlobalBase+huge.GlobalSize+7)/8*8 + DefaultStackSize; uint32(len(m.mem)) != want {
		t.Fatalf("image length %d, want %d", len(m.mem), want)
	}
	if v, err := m.Run("main"); err != nil || ToFloat64(huge.Globals[0].Type, v) != 1 {
		t.Fatalf("run on the fresh image: %#x, %v", v, err)
	}
}

// TestImageSizeDoesNotWrap: globals that end near the top of the 32-bit
// address space leave the stack only what is left of it, instead of the
// image size wrapping to a few bytes below the globals.
func TestImageSizeDoesNotWrap(t *testing.T) {
	for _, tc := range []struct {
		size, stack, want uint32
	}{
		{size: 100, stack: DefaultStackSize, want: 4096 + 104 + DefaultStackSize},
		{size: math.MaxUint32 - 4096 - DefaultStackSize, stack: DefaultStackSize, want: math.MaxUint32},
		{size: math.MaxUint32 - 4096, stack: DefaultStackSize, want: math.MaxUint32},
		{size: math.MaxUint32 - 4096, stack: 0, want: math.MaxUint32},
	} {
		mod := &ir.Module{GlobalBase: 4096, GlobalSize: tc.size}
		if got := imageSize(mod, tc.stack); got != tc.want {
			t.Errorf("globals [4096,+%d), stack %d: image %d, want %d", tc.size, tc.stack, got, tc.want)
		}
	}
}
