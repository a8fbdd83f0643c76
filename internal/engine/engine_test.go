package engine

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/bist"
	"repro/internal/designs"
	"repro/internal/dspgate"
	"repro/internal/fault"
)

// testCore is the default campaign fixture, the serial oracle's
// subject: the gate-level DSP core and its collapsed fault list, as the
// design cache builds them.
func testCore(t testing.TB) (*dspgate.Core, []fault.Fault) {
	t.Helper()
	d, err := GetDesign(designs.DefaultID)
	if err != nil {
		t.Fatal(err)
	}
	return d.Core, d.Faults
}

// shortFaults trims the fault list under -short: the race detector
// multiplies per-batch simulation cost, and shard-merge semantics are
// fully exercised by a prefix of the collapsed list.
func shortFaults(faults []fault.Fault, n int) []fault.Fault {
	if testing.Short() && len(faults) > n {
		return faults[:n]
	}
	return faults
}

// TestSimulateMatchesSerial is the shard-merge equivalence guarantee:
// for every worker count, the merged DetectedAt, Detections and the
// coverage curve must be byte-identical to the serial fault.Simulate on
// the dspgate netlist.
func TestSimulateMatchesSerial(t *testing.T) {
	core, faults := testCore(t)
	count := 1500
	workerCounts := []int{1, 2, 7, runtime.NumCPU()}
	if testing.Short() {
		// The race detector multiplies simulation cost; shrink the
		// workload but keep real multi-shard coverage.
		count = 300
		workerCounts = []int{1, 2, 7}
		faults = shortFaults(faults, 1500)
	}
	vecs := bist.PseudorandomVectors(count, 1)
	serial, err := fault.Simulate(core.Netlist, vecs, fault.SimOptions{
		Faults: faults, SegmentLen: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range workerCounts {
		par, err := Simulate(core.Netlist, vecs, SimOptions{
			SimOptions: fault.SimOptions{Faults: faults, SegmentLen: 256},
			Workers:    workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(par.DetectedAt, serial.DetectedAt) {
			t.Fatalf("workers=%d: DetectedAt diverges from serial", workers)
		}
		if par.Detections != nil || serial.Detections != nil {
			t.Fatalf("workers=%d: unexpected Detections", workers)
		}
		if par.Cycles != serial.Cycles || par.Interrupted != serial.Interrupted {
			t.Fatalf("workers=%d: cycles/interrupted %d/%v vs serial %d/%v",
				workers, par.Cycles, par.Interrupted, serial.Cycles, serial.Interrupted)
		}
		if par.Coverage() != serial.Coverage() {
			t.Fatalf("workers=%d: coverage %v vs serial %v", workers, par.Coverage(), serial.Coverage())
		}
		for cyc := 0; cyc <= serial.Cycles; cyc += 250 {
			if par.CoverageAt(cyc) != serial.CoverageAt(cyc) {
				t.Fatalf("workers=%d: coverage curve diverges at cycle %d", workers, cyc)
			}
		}
	}
}

// TestSimulateNDetectMatchesSerial extends equivalence to the n-detect
// counters.
func TestSimulateNDetectMatchesSerial(t *testing.T) {
	core, faults := testCore(t)
	count := 800
	workerCounts := []int{2, 7}
	if testing.Short() {
		count = 250
		workerCounts = []int{2}
		faults = shortFaults(faults, 1000)
	}
	vecs := bist.PseudorandomVectors(count, 3)
	serial, err := fault.Simulate(core.Netlist, vecs, fault.SimOptions{
		Faults: faults, SegmentLen: 256, NDetect: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range workerCounts {
		par, err := Simulate(core.Netlist, vecs, SimOptions{
			SimOptions: fault.SimOptions{Faults: faults, SegmentLen: 256, NDetect: 3},
			Workers:    workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(par.DetectedAt, serial.DetectedAt) {
			t.Fatalf("workers=%d: DetectedAt diverges", workers)
		}
		if !reflect.DeepEqual(par.Detections, serial.Detections) {
			t.Fatalf("workers=%d: Detections diverges", workers)
		}
		if par.NDetectCoverage(3) != serial.NDetectCoverage(3) {
			t.Fatalf("workers=%d: n-detect coverage diverges", workers)
		}
	}
}

// TestSimulateNilFaultsCollapses checks the convenience path where the
// fault list is derived from the netlist, against serial with the same
// default.
func TestSimulateNilFaultsCollapses(t *testing.T) {
	core, faults := testCore(t)
	count := 600
	if testing.Short() {
		// Cannot trim the fault list here — the point is the nil-Faults
		// collapse — so trim the vector count instead.
		count = 128
	}
	vecs := bist.PseudorandomVectors(count, 1)
	par, err := Simulate(core.Netlist, vecs, SimOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Faults) != len(faults) {
		t.Fatalf("collapsed %d faults, want %d", len(par.Faults), len(faults))
	}
	if par.Detected() == 0 {
		t.Fatal("no detections on the default fault list")
	}
}

// TestSimulateCancellationMidCampaign cancels from inside a progress
// callback: every shard must stop at a segment boundary, the merged
// result must be marked interrupted, and the partial detections must
// all lie inside the applied prefix.
func TestSimulateCancellationMidCampaign(t *testing.T) {
	core, faults := testCore(t)
	segment := 512
	if testing.Short() {
		faults = shortFaults(faults, 1500)
		segment = 256
	}
	vecs := bist.PseudorandomVectors(50000, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := Simulate(core.Netlist, vecs, SimOptions{
		SimOptions: fault.SimOptions{
			Faults:     faults,
			SegmentLen: segment,
			Ctx:        ctx,
			Progress:   func(cycles, detected, remaining int) { cancel() },
		},
		Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted {
		t.Fatal("cancelled run not marked Interrupted")
	}
	if res.Cycles <= 0 || res.Cycles >= vecs.Len() {
		t.Fatalf("interrupted run applied %d of %d cycles", res.Cycles, vecs.Len())
	}
	for i, c := range res.DetectedAt {
		if c >= 0 && int(c) >= res.Cycles {
			t.Fatalf("fault %d detected at cycle %d beyond applied prefix %d", i, c, res.Cycles)
		}
	}
	if res.Detected() == 0 {
		t.Fatal("interrupted run should still report the detections it made")
	}
}

// TestAggregatorProgress checks the merged progress stream: the frontier
// never regresses and ends at the sequence length, and the final
// detected+remaining sums to the fault count.
func TestAggregatorProgress(t *testing.T) {
	core, faults := testCore(t)
	count := 1200
	if testing.Short() {
		count = 400
		faults = shortFaults(faults, 1000)
	}
	vecs := bist.PseudorandomVectors(count, 1)
	last := Progress{}
	frontier := -1
	_, err := Simulate(core.Netlist, vecs, SimOptions{
		SimOptions: fault.SimOptions{
			Faults:     faults,
			SegmentLen: 256,
			Progress: func(cycles, detected, remaining int) {
				if cycles < frontier {
					t.Errorf("progress frontier regressed: %d after %d", cycles, frontier)
				}
				frontier = cycles
				last = Progress{Done: cycles, Detected: detected, Remaining: remaining}
			},
		},
		Workers: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if frontier != vecs.Len() {
		t.Fatalf("final frontier %d, want %d", frontier, vecs.Len())
	}
	if last.Detected+last.Remaining != len(faults) {
		t.Fatalf("final detected+remaining %d, want %d", last.Detected+last.Remaining, len(faults))
	}
}
