package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/big"
	"runtime"
	"sync"
	"time"
)

// The host's other tenants change how fast its cores run, for stretches
// of seconds to minutes, and CPU time stretches with them: the CPU time of
// one campaign pass ranged over a factor of two within a two-minute run.
// The benchmark therefore measures the core's speed while it runs: a
// calibrator runs a fixed reference burst at a fixed period beside the
// workload, and every figure of a pass is scaled by refNominal over the
// mean CPU time of the pass's bursts. A scaled time is what the work would
// take on a core that runs one burst in refNominal.

// refNominal is about the CPU time of one reference burst beside the
// workloads on the machine the bounds were set on (2 vCPUs of a KVM guest
// on a 2.1 GHz Xeon). Any fixed value would do: it sets the units of a
// scaled figure, not how figures compare from run to run.
const refNominal = 450 * time.Microsecond

// calPeriod is how often the calibrator runs a burst.
const calPeriod = 20 * time.Millisecond

// refBurst is a fixed amount of reference work built only from the
// standard library, so no change to the code under test changes it:
// 256-bit big.Float multiply-adds, the arithmetic of the default shadow
// oracle, and JSON encoding of a record of numbers and strings, the
// reflection, formatting and buffer copying of the server's answers. Of
// the bursts tried (also map lookups, a byte-code dispatch loop and a
// register-only loop), these two slowed with the host as the workloads
// do: beside serve and campaign, per-pass CPU time over the burst's
// varied a third as much as raw CPU time, while the register-only burst
// slowed about half as much as the workloads and left 1.4 to 1.7 times
// the spread. It does not allocate once warm, so the collector never
// charges it for the workload's garbage.
func refBurst() {
	refMu.Lock()
	defer refMu.Unlock()
	refX.SetFloat64(0.25)
	for i := 0; i < 1500; i++ {
		refZ.Mul(refX, refY)
		refX.Add(refZ, refC)
	}
	refSink = int(refX.MinPrec() & 1)
	for i := 0; i < 40; i++ {
		if err := refEncoder.Encode(&refRecord); err != nil {
			panic(err)
		}
	}
}

// The burst's operands, kept across bursts so that a warm burst reuses
// their storage. x <- x*y + c converges to c/(1-y), so the operands keep
// their magnitude, and c's 256-bit expansion of 0.3 fills every mantissa.
// refMu guards them for callers other than the calibrator's thread.
var (
	refMu      sync.Mutex
	refX       = new(big.Float).SetPrec(256)
	refY       = new(big.Float).SetPrec(256).SetFloat64(0.75)
	refZ       = new(big.Float).SetPrec(256)
	refC       = mustParse("0.3")
	refEncoder = json.NewEncoder(io.Discard)
	refRecord  = newRefRecord()
	refSink    int
)

func mustParse(s string) *big.Float {
	f, _, err := big.ParseFloat(s, 10, 256, big.ToNearestEven)
	if err != nil {
		panic(err)
	}
	return f
}

// refAnswer is the burst's encoded record, about the shape of a served
// answer.
type refAnswer struct {
	Name       string         `json:"name"`
	Value      string         `json:"value"`
	Steps      int64          `json:"steps"`
	Bits       []float64      `json:"bits"`
	Detections []refDetection `json:"detections"`
	Notes      []string       `json:"notes"`
}

type refDetection struct {
	Kind  string  `json:"kind"`
	Where string  `json:"where"`
	Ulps  float64 `json:"ulps"`
	Count int     `json:"count"`
}

func newRefRecord() refAnswer {
	r := refAnswer{Name: "polybench/gemm-16/posit", Value: "0x3f8a41c2", Steps: 1_234_567}
	for i := 0; i < 24; i++ {
		r.Bits = append(r.Bits, 1/float64(i+3))
		r.Notes = append(r.Notes, fmt.Sprintf("note %d: operand cancelled", i))
	}
	for i := 0; i < 8; i++ {
		r.Detections = append(r.Detections, refDetection{Kind: "cancellation", Where: fmt.Sprintf("main.pcl:%d:%d", 10+i, 3*i+1), Ulps: float64(i) * 1.75e3, Count: i * 13})
	}
	return r
}

// calibrator runs reference bursts every calPeriod on a thread of its own
// until stopped.
type calibrator struct {
	mu     sync.Mutex
	cpu    time.Duration // burst CPU time since the start
	lapCPU time.Duration // burst CPU time since the last lap
	bursts int           // bursts since the last lap
	stop   chan struct{}
	done   chan struct{}
}

func startCalibrator() *calibrator {
	c := &calibrator{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(calPeriod)
		defer tick.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-tick.C:
				t0 := threadCPU()
				refBurst()
				d := threadCPU() - t0
				c.mu.Lock()
				c.cpu += d
				c.lapCPU += d
				c.bursts++
				c.mu.Unlock()
			}
		}
	}()
	return c
}

// close stops the calibrator and waits for it.
func (c *calibrator) close() {
	close(c.stop)
	<-c.done
}

// spent is the CPU time the calibrator's bursts have used so far, to be
// taken out of the process's CPU time; 0 for a nil calibrator.
func (c *calibrator) spent() time.Duration {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cpu
}

// lap returns the scale factor for the work done since the last lap,
// refNominal over the mean burst CPU time, and starts a new lap. With no
// burst in the lap (under one period) it waits for one.
func (c *calibrator) lap() float64 {
	for {
		c.mu.Lock()
		if c.bursts > 0 {
			f := float64(refNominal) * float64(c.bursts) / float64(c.lapCPU)
			c.lapCPU, c.bursts = 0, 0
			c.mu.Unlock()
			return f
		}
		c.mu.Unlock()
		time.Sleep(calPeriod / 4)
	}
}
