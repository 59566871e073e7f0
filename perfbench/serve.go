package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"sacs/internal/core"
	"sacs/internal/population"
	"sacs/internal/runner"
	"sacs/internal/serve"
)

// serve-mixed hosts the stationary population behind serve.Server's HTTP
// handler, with durability off, while a tick driver advances it on a fixed
// cadence and an open-loop generator sends a fixed request mix.
const (
	serveAgents = 2048
	serveShards = 16
	servePop    = "bench"
	// serveTickEvery is the tick driver's cadence, like sawd -tick.
	serveTickEvery = 50 * time.Millisecond
	// serveRate is the generator's fixed request rate. At 15% of the
	// mix, a 10 s window sends ingest and explain about 1500 times each.
	// The rate leaves the two CPUs about three quarters idle, so host steal
	// does not push the server into queueing.
	serveRate = 1000.0
	// ingestBatch is the stimuli per POST.
	ingestBatch = 8
	// serveCycles is how many durability cycles follow the window. They
	// are the cheapest of the three workloads', so more of them steady the
	// median.
	serveCycles = 9
)

// ingestNames is the fixed set of stimulus names the generator posts.
// Set-up sends every agent each name once, so the models they create exist
// before the window opens and the agents stay stationary.
var ingestNames = []string{"load", "demand"}

const ingestSource = "gen"

type opKind int

const (
	opStatus opKind = iota
	opExplain
	opIngest
	opOther
	opKinds
)

var opNames = [opKinds]string{"status", "explain", "ingest", "other"}

// classify maps a request to its operation.
func classify(r *http.Request) opKind {
	switch {
	case r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/stimuli"):
		return opIngest
	case r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/explain"):
		return opExplain
	case r.Method == http.MethodGet && r.URL.Path == "/populations/"+servePop:
		return opStatus
	}
	return opOther
}

// request is one planned request of the generator.
type request struct {
	op   opKind
	path string
	body []byte
}

// outcome is one request as the generator saw it.
type outcome struct {
	code    int
	err     bool
	latency time.Duration // from the due time to the end of the response
	late    time.Duration // from the due time to the send
}

// plan draws the window's requests from the seed: 70% status, 15%
// explain of a random agent, 15% ingest of an 8-stimulus batch.
func plan(seed int64, n int) []request {
	rng := rand.New(rand.NewSource(seed))
	base := "/populations/" + servePop
	reqs := make([]request, n)
	for i := range reqs {
		switch x := rng.Float64(); {
		case x < 0.15:
			reqs[i] = request{op: opExplain, path: fmt.Sprintf("%s/agents/%d/explain", base, rng.Intn(serveAgents))}
		case x < 0.30:
			var b bytes.Buffer
			b.WriteByte('[')
			for j := 0; j < ingestBatch; j++ {
				if j > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, `{"to":%d,"name":%q,"value":%.3f,"source":%q}`,
					rng.Intn(serveAgents), ingestNames[rng.Intn(len(ingestNames))], rng.Float64()*10, ingestSource)
			}
			b.WriteByte(']')
			reqs[i] = request{op: opIngest, path: base + "/stimuli", body: b.Bytes()}
		default:
			reqs[i] = request{op: opStatus, path: base}
		}
	}
	return reqs
}

// served is a running server under test.
type served struct {
	srv    *serve.Server
	pool   *runner.Pool
	engine *engine // the population's engine, which the server built through NewEngine
	http   *http.Server
	addr   string
	done   chan error
	traced *tracedHandler
}

func (s *served) close() {
	if s.http != nil {
		s.http.Shutdown(context.Background())
		<-s.done
	}
	s.pool.Close()
}

// newServed builds the server, warms the population, pre-sends every
// ingest name to every agent, and starts serving HTTP on loopback.
func newServed(o options, tr *tracer) (*served, error) {
	s := &served{pool: runner.New(o.executors)}
	srv, err := serve.New(serve.Options{
		Pool:      s.pool,
		Workloads: []serve.Workload{{Name: steadyWorkload, Build: steadyConfig}},
		NewEngine: func(_ serve.Spec, cfg population.Config) (*population.Engine, error) {
			e, err := newLocal(cfg, tr, 0)
			s.engine = e
			return e.eng, err
		},
	})
	if err != nil {
		s.close()
		return nil, err
	}
	s.srv = srv
	if err := srv.Add(serve.Spec{ID: servePop, Workload: steadyWorkload, Agents: serveAgents,
		Shards: serveShards, Seed: o.seed}); err != nil {
		s.close()
		return nil, err
	}
	if _, err := srv.Advance(servePop, tickWarmup); err != nil {
		s.close()
		return nil, err
	}
	items := make([]serve.IngestItem, 0, serveAgents)
	for _, name := range ingestNames {
		items = items[:0]
		for to := 0; to < serveAgents; to++ {
			items = append(items, serve.IngestItem{To: to, Stim: core.Stimulus{
				Name: name, Source: ingestSource, Scope: core.Public, Value: 1}})
		}
		if _, err := srv.IngestBatch(servePop, items); err != nil {
			s.close()
			return nil, err
		}
		if _, err := srv.Advance(servePop, 2); err != nil {
			s.close()
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	var h http.Handler = srv.Handler()
	if tr != nil {
		s.traced = &tracedHandler{next: h, tr: tr}
		h = s.traced
	}
	s.addr = "http://" + ln.Addr().String()
	s.http = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	s.done = make(chan error, 1)
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

// debugVars reads the server's metrics as /debug/vars serves them.
func debugVars(client *http.Client, addr string) (map[string]any, error) {
	resp, err := client.Get(addr + "/debug/vars")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/debug/vars: status %d", resp.StatusCode)
	}
	var vars map[string]any
	return vars, json.NewDecoder(resp.Body).Decode(&vars)
}

// popVar reads a counter of the benchmark's population.
func popVar(vars map[string]any, name string) float64 {
	v, _ := vars[name+`{pop="`+servePop+`"}`].(float64)
	return v
}

// ingestedVar reads the accepted-stimuli total: the sum of the ingest
// batch-size histogram.
func ingestedVar(vars map[string]any) float64 {
	h, _ := vars[`sacs_serve_ingest_batch_size{pop="`+servePop+`"}`].(map[string]any)
	v, _ := h["sum"].(float64)
	return v
}

// serveMixed measures the serving plane under sustained ticking.
func serveMixed(o options, tr *tracer) (*report, error) {
	r := newReport()
	s, setup, err := setUp(func() (*served, error) { return newServed(o, tr) }, func(s *served) { s.close() })
	if err != nil {
		return r, err
	}
	defer s.close()
	r.e2e["setup_s"] = metric{setup, "s"}

	conns := runtime.NumCPU()
	client := &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}}
	defer client.CloseIdleConnections()
	vars0, err := debugVars(client, s.addr)
	if err != nil {
		return r, err
	}

	reqs := plan(o.seed, int(serveRate*o.window.Seconds()))
	outs := make([]outcome, len(reqs))
	from := readRuntime()

	// The tick driver: one Advance per cadence tick until the generator
	// is done; a tick that overruns the cadence drops the missed ones. Its
	// timings stay wall times: a calibration kernel (calib.go) run beside
	// the request load times the load, and scaling by it spread the tick
	// figures twice as much over six runs as the wall times did.
	stop := make(chan struct{})
	ticked := make(chan struct{})
	l := &tickLog{from: from}
	var tickErr error
	go func() {
		defer close(ticked)
		t := time.NewTicker(serveTickEvery)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
			}
			tick := s.engine.eng.Ticks()
			sp := tr.open("serve.advance", -1, int64(tick))
			if s.engine.dec != nil {
				s.engine.dec.parent = sp
			}
			start := time.Now()
			ts, err := s.srv.Advance(servePop, 1)
			wall := time.Since(start)
			tr.close(sp)
			if err != nil {
				tickErr = err
				return
			}
			l.add(wall, ts.Steps, s.engine.dec)
			if l.ticks%rateWindow == 0 {
				l.sample(1)
			}
		}
	}()

	// The generator sleeps on its own OS thread with nanosleep: the
	// runtime's timers wake about half a millisecond late on average,
	// which would otherwise dominate every median.
	var wg sync.WaitGroup
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := time.Now()
	for i := range reqs {
		due := start.Add(time.Duration(float64(i) / serveRate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			ts := syscall.NsecToTimespec(d.Nanoseconds())
			for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
			}
		}
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			outs[i] = send(client, s.addr, reqs[i], due, tr, int64(i))
		}(i, due)
	}
	wg.Wait()
	close(stop)
	<-ticked
	l.to = readRuntime()
	r.attempted += l.ticks
	if tickErr != nil {
		r.attempted++
		r.failed++
		return r, fmt.Errorf("tick driver: %w", tickErr)
	}

	vars1, err := debugVars(client, s.addr)
	if err != nil {
		return r, err
	}

	// A failed request counts as missing any latency limit, so it enters
	// the distributions as the whole window.
	lat := make([]float64, len(outs))
	var late []float64
	var accepted int64
	var bad int
	for i, out := range outs {
		r.attempted++
		ok := !out.err && out.code/100 == 2
		if !ok {
			r.failed++
		}
		if ok && reqs[i].op == opIngest {
			accepted += ingestBatch
		}
		if out.err || (out.code/100 != 2 && out.code != http.StatusTooManyRequests) {
			bad++
		}
		lat[i] = ms(out.latency)
		if !ok {
			lat[i] = ms(o.window)
		}
		late = append(late, ms(out.late))
	}
	r.check(bad == 0, "%d responses were neither 2xx nor 429", bad)
	ingested := ingestedVar(vars1) - ingestedVar(vars0)
	r.check(float64(accepted) == ingested, "accepted %d stimuli, /debug/vars ingested %.0f", accepted, ingested)

	// Each percentile is the median over consecutive windows of the run of
	// the window's percentile, so a host stall sets at most the windows it
	// overlaps. A window holds at least least samples of every operation.
	var count [opKinds]int
	for _, q := range reqs {
		count[q.op]++
	}
	fewest := min(count[opStatus], count[opExplain], count[opIngest])
	windowed := func(op opKind, q float64, least int) float64 {
		per := make([][]float64, max(1, fewest/least))
		for i, l := range lat {
			if reqs[i].op == op {
				w := i * len(per) / len(lat)
				per[w] = append(per[w], l)
			}
		}
		qs := make([]float64, len(per))
		for w, p := range per {
			qs[w] = quantile(p, q)
		}
		return median(qs)
	}
	// The latencies are diagnostics: on a shared virtual machine they
	// follow hypervisor steal more than the server (README.md has the
	// spreads).
	for _, op := range []opKind{opStatus, opIngest, opExplain} {
		r.diag["lat."+opNames[op]+"_p50_ms"] = metric{windowed(op, 0.5, medianSamples), "ms"}
		r.diag["lat."+opNames[op]+"_p90_ms"] = metric{windowed(op, 0.9, tailSamples), "ms"}
		r.diag["lat."+opNames[op]+"_p99_ms"] = metric{windowed(op, 0.99, tailSamples), "ms"}
	}
	r.diag["gen.late_ms_p50"] = metric{median(late), "ms"}
	r.diag["gen.late_ms_p99"] = metric{quantile(late, 0.99), "ms"}
	hits := popVar(vars1, "sacs_serve_explain_cache_hits_total") - popVar(vars0, "sacs_serve_explain_cache_hits_total")
	renders := popVar(vars1, "sacs_serve_explain_renders_total") - popVar(vars0, "sacs_serve_explain_renders_total")
	shed := popVar(vars1, "sacs_serve_shed_total") - popVar(vars0, "sacs_serve_shed_total")
	r.diag["serve.explain_hit_frac"] = metric{hits / max(hits+renders, 1), "ratio"}
	r.diag["serve.shed_frac"] = metric{shed / max(float64(count[opIngest]*ingestBatch), 1), "ratio"}
	if s.traced != nil {
		s.traced.mu.Lock()
		for _, op := range []opKind{opStatus, opIngest, opExplain} {
			r.diag["http."+opNames[op]+".handler_ms_p50"] = metric{median(s.traced.ms[op]), "ms"}
			r.diag["http."+opNames[op]+".handler_ms_p99"] = metric{quantile(s.traced.ms[op], 0.99), "ms"}
		}
		s.traced.mu.Unlock()
	}
	addTickMetrics(r, l, o.executors)

	// The durability cycles run on the server's engine once the generator
	// and the tick driver have stopped; each restores into an engine of
	// its own.
	client.CloseIdleConnections()
	if err := durability(s.engine, serveCycles, false, r); err != nil {
		return r, err
	}
	r.e2e["heap_live_mb"] = metric{heapLiveMB(), "MiB"}
	return r, nil
}

// medianSamples and tailSamples are the fewest samples of each operation
// a window holds for a median, and for a p90 or p99 (at least ten samples
// beyond it).
const (
	medianSamples = 100
	tailSamples   = 1000
)

// send issues one planned request at its due time.
func send(client *http.Client, addr string, req request, due time.Time, tr *tracer, id int64) outcome {
	out := outcome{late: time.Since(due)}
	method, body := http.MethodGet, io.Reader(nil)
	if req.body != nil {
		method, body = http.MethodPost, bytes.NewReader(req.body)
	}
	hr, err := http.NewRequest(method, addr+req.path, body)
	if err != nil {
		return outcome{err: true, late: out.late, latency: time.Since(due)}
	}
	sp := tr.open("gen."+opNames[req.op], -1, id)
	if tr != nil {
		hr.Header.Set(spanHeader, strconv.Itoa(sp))
		hr.Header.Set(keyHeader, strconv.FormatInt(id, 10))
	}
	resp, err := client.Do(hr)
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		out.code = resp.StatusCode
	}
	out.err = err != nil
	out.latency = time.Since(due)
	tr.close(sp)
	return out
}
