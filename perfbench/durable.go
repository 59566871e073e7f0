package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"sacs/internal/checkpoint"
	"sacs/internal/population"
)

// Every workload runs durability cycles on its population after its
// window: Engine.Snapshot and checkpoint.Write into a scratch directory,
// then checkpoint.Read and a restore into a fresh transport.
const (
	// tickCycles is how many cycles the tick workloads run. Their medians
	// spread 0.25–0.29 over five runs with five cycles; the time goes
	// mostly into a 64 MiB write with fsync and its read.
	tickCycles = 9
	// clusterCycles is how many cycles tick-cluster runs. Each costs twice
	// a tick-steady cycle, since export and install cross the wire, and
	// five held its medians within 0.11 over five runs.
	clusterCycles = 5
	// cycleCalibRuns is how many calibration kernels (calib.go) precede
	// each cycle.
	cycleCalibRuns = 3
)

// cycleTimes is one durability cycle's timed calls, and the file it wrote.
type cycleTimes struct {
	checkpoint, restore                time.Duration // the end-to-end pair
	scale                              float64       // the host speed factor before the cycle (calib.go)
	snapshot, export, write, read      time.Duration
	construct, install, encode, decode time.Duration
	size                               int64   // bytes of the checkpoint file
	models                             float64 // models per agent in the snapshot read back
}

// cycle runs one durability cycle on e and checks, after the timed calls,
// that the restored engine re-encodes to the file's bytes. With keep the
// restored engine replaces e's, whose transport is closed before the
// restore builds a fresh one; without it (a server's engine, which the
// benchmark does not own) the restored engine is checked and closed.
func (e *engine) cycle(path string, keep bool, r *report) (cycleTimes, error) {
	var c cycleTimes
	tr := e.tr
	meta := map[string]string{"workload": e.cfg.Name}
	tick := int64(e.eng.Ticks())
	root := tr.open("ckpt.cycle", -1, tick)

	start := time.Now()
	sp := tr.open("engine.snapshot", root, tick)
	if e.dec != nil {
		e.dec.parent = sp
	}
	snap, err := e.eng.Snapshot()
	c.snapshot = tr.close(sp)
	if err != nil {
		return c, err
	}
	if e.dec != nil {
		c.export = e.dec.export
	}
	sp = tr.open("checkpoint.write", root, tick)
	err = checkpoint.Write(path, snap, meta)
	c.write = tr.close(sp)
	c.checkpoint = time.Since(start)
	if err != nil {
		return c, err
	}
	if keep {
		e.eng.Close()
	}

	start = time.Now()
	sp = tr.open("checkpoint.read", root, tick)
	snap, meta, err = checkpoint.Read(path)
	c.read = tr.close(sp)
	if err != nil {
		return c, err
	}
	sp = tr.open("transport.construct", root, tick)
	t, err := e.fresh()
	c.construct = tr.close(sp)
	if err != nil {
		return c, err
	}
	sp = tr.open("engine.restore", root, tick)
	pt, dec := e.wrap(t)
	if dec != nil {
		dec.parent = sp
	}
	eng, err := population.RestoreWithTransport(e.cfg, pt, snap)
	tr.close(sp)
	if dec != nil {
		c.install = dec.install
	}
	c.restore = time.Since(start)
	if err != nil {
		t.Close()
		return c, err
	}
	tr.close(root)
	if keep {
		e.eng, e.dec = eng, dec
	} else {
		defer eng.Close()
	}

	// The check, outside the timed calls: the restored engine encodes to
	// exactly the bytes it was read from.
	file, err := os.ReadFile(path)
	if err != nil {
		return c, err
	}
	c.size = int64(len(file))
	n := 0
	for _, a := range snap.AgentStates {
		n += len(a.Store.Entries)
	}
	c.models = float64(n) / float64(len(snap.AgentStates))
	again, err := eng.Snapshot()
	if err != nil {
		return c, err
	}
	sp = tr.open("checkpoint.encode", -1, tick)
	enc, err := checkpoint.EncodeBytes(again, meta)
	c.encode = tr.close(sp)
	if err != nil {
		return c, err
	}
	r.check(bytes.Equal(enc, file), "tick %d: restored engine encodes to %d bytes that differ from the %d-byte file", tick, len(enc), len(file))
	if tr != nil {
		sp = tr.open("checkpoint.decode", -1, tick)
		_, _, err = checkpoint.DecodeBytes(file)
		c.decode = tr.close(sp)
		if err != nil {
			return c, err
		}
	}
	return c, os.Remove(path)
}

// timedCycle runs one cycle on a freshly collected heap, so no collection
// left over from the ticks runs beside the calibration or the cycle, and
// appends its times to cs.
func (e *engine) timedCycle(dir string, keep bool, r *report, cs *[]cycleTimes) error {
	path := filepath.Join(dir, checkpoint.FileName(e.cfg.Name, e.eng.Ticks()))
	runtime.GC()
	scale := hostScale(cycleCalibRuns)
	c, err := e.cycle(path, keep, r)
	c.scale = scale
	r.attempted++
	if err != nil {
		r.failed++
		return err
	}
	*cs = append(*cs, c)
	return nil
}

// durability runs n cycles on e after a workload's window and reports them.
func durability(e *engine, n int, keep bool, r *report) error {
	dir, err := os.MkdirTemp("", "perfbench-ckpt-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var cs []cycleTimes
	for i := 0; i < n; i++ {
		if err := e.timedCycle(dir, keep, r, &cs); err != nil {
			return err
		}
	}
	addCycleMetrics(r, cs)
	return nil
}

// addCycleMetrics reports the cycles' medians: the end-to-end pair at the
// reference host speed, the layer timings (from the decorator and the
// tracer, so zero on untraced runs, which report no layers) as wall times.
func addCycleMetrics(r *report, cs []cycleTimes) {
	last := cs[len(cs)-1]
	r.e2e["snapshot_mb"] = metric{float64(last.size) / (1 << 20), "MiB"}
	atRef := func(f func(c cycleTimes) time.Duration) float64 {
		xs := make([]float64, len(cs))
		for i, c := range cs {
			xs[i] = ms(f(c)) * c.scale
		}
		return median(xs)
	}
	r.e2e["checkpoint_ms"] = metric{atRef(func(c cycleTimes) time.Duration { return c.checkpoint }), "ms"}
	r.e2e["restore_ms"] = metric{atRef(func(c cycleTimes) time.Duration { return c.restore }), "ms"}
	pick := func(name string, f func(c cycleTimes) time.Duration) {
		xs := make([]float64, len(cs))
		for i, c := range cs {
			xs[i] = ms(f(c))
		}
		r.layer[name] = metric{median(xs), "ms"}
	}
	pick("ckpt.export_ms", func(c cycleTimes) time.Duration { return c.export })
	pick("ckpt.snapshot_ms", func(c cycleTimes) time.Duration { return c.snapshot })
	pick("ckpt.encode_ms", func(c cycleTimes) time.Duration { return c.encode })
	pick("ckpt.write_ms", func(c cycleTimes) time.Duration { return c.write })
	pick("ckpt.read_ms", func(c cycleTimes) time.Duration { return c.read })
	pick("ckpt.decode_ms", func(c cycleTimes) time.Duration { return c.decode })
	pick("ckpt.construct_ms", func(c cycleTimes) time.Duration { return c.construct })
	pick("ckpt.install_ms", func(c cycleTimes) time.Duration { return c.install })
	r.layer["knowledge.models_per_agent"] = metric{last.models, "count"}
}
