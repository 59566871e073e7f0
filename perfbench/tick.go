package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sacs/internal/checkpoint"
	"sacs/internal/cluster"
	"sacs/internal/obs"
	"sacs/internal/population"
	"sacs/internal/runner"
)

// The tick workloads step the stationary population back to back, one
// caller in a closed loop, then run durability cycles on it.
const (
	tickAgents = 4096
	tickShards = 16
	// tickWarmup covers the first historyLen ticks, which fill every
	// model's history, and the goal switch at tick 60.
	tickWarmup = 80
	// rateWindow is the tick count of one throughput sample; steps_per_s
	// is the median over the run's samples. A calibration kernel follows
	// each sample and scales it, and its ticks, to the reference host.
	rateWindow = 20
)

// engine is a population under test. fresh makes a new, empty transport
// for it, which a restore installs a snapshot into.
type engine struct {
	eng   *population.Engine
	cfg   population.Config
	tr    *tracer
	fresh func() (population.Transport, error)
	local *population.LocalTransport // the latest local transport, when the agents live in this process
	dec   *tracedTransport           // the engine's transport decorator, on traced runs
}

// wrap hands back t, wrapped in the decorator on traced runs, so every call
// the engine makes into the agents' layer is timed.
func (e *engine) wrap(t population.Transport) (population.Transport, *tracedTransport) {
	if e.tr == nil {
		return t, nil
	}
	d := &tracedTransport{Transport: t, tr: e.tr, parent: -1}
	return d, d
}

// newLocal builds cfg's population in this process, as population.New
// does, and warms it.
func newLocal(cfg population.Config, tr *tracer, warmup int) (*engine, error) {
	norm := cfg.Normalized()
	e := &engine{cfg: cfg, tr: tr}
	e.fresh = func() (population.Transport, error) {
		e.local = population.NewLocalTransport(norm, 0, norm.Shards)
		return e.local, nil
	}
	if err := e.build(); err != nil {
		return e, err
	}
	return e, warm(e.eng, warmup)
}

// build makes the engine on a fresh transport.
func (e *engine) build() error {
	t, err := e.fresh()
	if err != nil {
		return err
	}
	pt, dec := e.wrap(t)
	eng, err := population.NewWithTransport(e.cfg, pt)
	if err != nil {
		t.Close()
		return err
	}
	e.eng, e.dec = eng, dec
	return nil
}

// models is the population's total knowledge-store size.
func (e *engine) models() int {
	n := 0
	for i := 0; i < e.eng.Agents(); i++ {
		n += e.local.Agent(i).Store().Len()
	}
	return n
}

// ticked is a tick workload's population.
type ticked struct {
	*engine
	wire *atomic.Int64 // bytes on the loopback worker's connections (traced cluster runs)
	stop func()
	once sync.Once
}

// close releases the population; later calls do nothing.
func (p *ticked) close() { p.once.Do(p.stop) }

func tickConfig(o options, pool *runner.Pool) population.Config {
	cfg := steadyConfig(tickAgents, tickShards, o.seed, pool)
	cfg.Metrics = population.NewMetrics(obs.NewRegistry(), "bench")
	return cfg
}

// newInProcess builds the stationary population in this process.
func newInProcess(o options, tr *tracer) (*ticked, error) {
	pool := runner.New(o.executors)
	e, err := newLocal(tickConfig(o, pool), tr, tickWarmup)
	if err != nil {
		pool.Close()
		return nil, err
	}
	return &ticked{engine: e, stop: pool.Close}, nil
}

// newOnWorker hosts the stationary population on one loopback worker in
// this process and drives it through a cluster transport.
func newOnWorker(o options, tr *tracer) (*ticked, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	pool := runner.New(o.executors)
	p := &ticked{engine: &engine{cfg: tickConfig(o, pool), tr: tr}}
	if tr != nil {
		p.wire = new(atomic.Int64)
		ln = countingListener{Listener: ln, n: p.wire}
	}
	w, err := cluster.NewWorker(ln, pool, []cluster.Workload{{Name: steadyWorkload, Build: steadyConfig}})
	if err != nil {
		ln.Close()
		pool.Close()
		return nil, err
	}
	served := make(chan error, 1)
	go func() { served <- w.Serve() }()
	var cl *cluster.Client
	p.stop = func() {
		if p.eng != nil {
			p.eng.Close()
		}
		if cl != nil {
			cl.Close()
		}
		w.Close()
		<-served
		pool.Close()
	}
	cl, err = cluster.Dial([]string{w.Addr()}, 5*time.Second)
	if err != nil {
		p.close()
		return nil, err
	}
	p.fresh = func() (population.Transport, error) {
		return cl.NewTransport(cluster.Spec{ID: "bench", Workload: steadyWorkload,
			Agents: tickAgents, Shards: tickShards, Seed: o.seed})
	}
	if err := p.build(); err != nil {
		p.close()
		return nil, err
	}
	if err := warm(p.eng, tickWarmup); err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

func warm(eng *population.Engine, ticks int) error {
	for i := 0; i < ticks; i++ {
		if _, err := eng.TickErr(); err != nil {
			return err
		}
	}
	return nil
}

// tickLog is what a workload saw of the ticks it timed.
type tickLog struct {
	ticks, steps int64
	tickMs       []float64    // wall time of each tick
	tickRef      []float64    // the same at the reference host speed
	rates        []float64    // steps/s of each sample, at the reference host speed
	records      []stepRecord // what the transport decorator saw of each tick (traced runs)
	sampleSteps  int64        // steps since the last sample
	sampleWall   time.Duration
	from, to     runtimeSample
}

// add logs one tick of wall time wall and steps agent steps; dec, when
// set, is the decorator that saw the tick.
func (l *tickLog) add(wall time.Duration, steps int, dec *tracedTransport) {
	l.ticks++
	l.steps += int64(steps)
	l.sampleSteps += int64(steps)
	l.sampleWall += wall
	l.tickMs = append(l.tickMs, ms(wall))
	if dec != nil {
		l.records = append(l.records, dec.last)
	}
}

// sample closes a throughput sample over the ticks since the last one,
// taking them and their rate to the reference host speed by scale
// (calib.go).
func (l *tickLog) sample(scale float64) {
	if l.sampleSteps == 0 {
		return
	}
	l.rates = append(l.rates, float64(l.sampleSteps)/l.sampleWall.Seconds()/scale)
	for _, t := range l.tickMs[len(l.tickRef):] {
		l.tickRef = append(l.tickRef, t*scale)
	}
	l.sampleSteps, l.sampleWall = 0, 0
}

// measureTicks ticks p back to back until d has passed, stopping at a
// rate-window boundary. A tick that fails ends the window: the engine is
// poisoned after a transport failure.
func measureTicks(p *ticked, d time.Duration, r *report) (*tickLog, error) {
	l := &tickLog{from: readRuntime()}
	start := time.Now()
	for {
		tick := p.eng.Ticks()
		sp := p.tr.open("engine.tick", -1, int64(tick))
		if p.dec != nil {
			p.dec.parent = sp
		}
		t0 := time.Now()
		ts, err := p.eng.TickErr()
		wall := time.Since(t0)
		p.tr.close(sp)
		r.attempted++
		if err != nil {
			r.failed++
			return l, fmt.Errorf("tick %d: %w", tick, err)
		}
		l.add(wall, ts.Steps, p.dec)
		if l.ticks%rateWindow == 0 {
			l.sample(hostScale(1))
			if time.Since(start) >= d {
				break
			}
		}
	}
	l.to = readRuntime()
	return l, nil
}

// addTickMetrics reports the tick speed and allocations of the timed
// ticks, and on traced runs the layer numbers the transport decorator
// collected. On the cluster workload the dispatch figure is the wire round
// trip's.
func addTickMetrics(r *report, l *tickLog, executors int) {
	r.layer["steps_per_s"] = metric{median(l.rates), "1/s"}
	r.layer["tick_p50_ms"] = metric{median(l.tickRef), "ms"}
	r.e2e["allocs_per_step"] = metric{float64(l.to.allocs-l.from.allocs) / float64(l.steps), "count"}
	if len(l.records) == 0 {
		return
	}
	var busy int64
	var route, dispatch, msgs, delivered []float64
	for i, s := range l.records {
		busy += s.busy
		route = append(route, l.tickMs[i]-ms(s.wall))
		dispatch = append(dispatch, ms(s.wall)-float64(s.busy)/float64(executors)/1e6)
		msgs = append(msgs, float64(s.msgs))
		delivered = append(delivered, float64(s.delivered))
	}
	r.layer["shard.step_ns_per_agent"] = metric{float64(busy) / float64(l.steps), "ns"}
	r.layer["runner.dispatch_ms_p50"] = metric{median(dispatch), "ms"}
	r.layer["barrier.route_ms_p50"] = metric{median(route), "ms"}
	r.layer["mail.msgs_per_tick"] = metric{mean(msgs), "count"}
	r.layer["mail.delivered_per_tick"] = metric{mean(delivered), "count"}
	r.layer["engine.tick_p99_ms"] = metric{quantile(l.tickMs, 0.99), "ms"}
	addRuntimeLayers(r, l.from, l.to)
}

// tickSteady steps 4096 stationary agents in-process.
func tickSteady(o options, tr *tracer) (*report, error) {
	r := newReport()
	p, setup, err := setUp(func() (*ticked, error) { return newInProcess(o, tr) }, func(p *ticked) { p.close() })
	if err != nil {
		return r, err
	}
	defer p.close()
	r.e2e["setup_s"] = metric{setup, "s"}
	before := p.models()
	l, err := measureTicks(p, o.window, r)
	if err != nil {
		return r, err
	}
	after := p.models()
	r.check(before == after, "models per agent moved during the window: %d -> %d models", before, after)
	r.check(l.steps == int64(tickAgents)*l.ticks, "%d steps over %d ticks of %d agents", l.steps, l.ticks, tickAgents)
	addTickMetrics(r, l, o.executors)
	if err := durability(p.engine, tickCycles, true, r); err != nil {
		return r, err
	}
	r.e2e["heap_live_mb"] = metric{heapLiveMB(), "MiB"}
	return r, nil
}

// tickCluster steps the same population on a loopback worker and runs
// durability cycles through the wire, then checks the cluster's final
// snapshot against an in-process run of as many ticks.
func tickCluster(o options, tr *tracer) (*report, error) {
	r := newReport()
	p, setup, err := setUp(func() (*ticked, error) { return newOnWorker(o, tr) }, func(p *ticked) { p.close() })
	if err != nil {
		return r, err
	}
	defer p.close()
	r.e2e["setup_s"] = metric{setup, "s"}
	var wire0 int64
	if p.wire != nil {
		wire0 = p.wire.Load()
	}
	l, err := measureTicks(p, o.window, r)
	if err != nil {
		return r, err
	}
	addTickMetrics(r, l, o.executors)
	if p.wire != nil {
		r.diag["cluster.wire_bytes_per_tick"] = metric{float64(p.wire.Load()-wire0) / float64(l.ticks), "B"}
	}
	if err := durability(p.engine, clusterCycles, true, r); err != nil {
		return r, err
	}
	r.e2e["heap_live_mb"] = metric{heapLiveMB(), "MiB"}

	got, err := digest(p.eng)
	if err != nil {
		return r, err
	}
	ticks := p.eng.Ticks()
	p.close()
	// The reference run is not timed, so it may use every CPU; results
	// are byte-identical at any executor count.
	pool := runner.New(runtime.NumCPU())
	defer pool.Close()
	ref := population.New(steadyConfig(tickAgents, tickShards, o.seed, pool))
	if err := warm(ref, ticks); err != nil {
		return r, err
	}
	want, err := digest(ref)
	if err != nil {
		return r, err
	}
	r.check(bytes.Equal(got, want), "cluster snapshot digest %x != in-process digest %x after %d ticks", got, want, ticks)
	return r, nil
}

// digest is the SHA-256 of the engine's encoded snapshot.
func digest(eng *population.Engine) ([]byte, error) {
	snap, err := eng.Snapshot()
	if err != nil {
		return nil, err
	}
	b, err := checkpoint.EncodeBytes(snap, nil)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(b)
	return sum[:], nil
}
