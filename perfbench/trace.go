package main

import (
	"bufio"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sacs/internal/core"
	"sacs/internal/population"
)

// tracer keeps the traced run's spans in memory; write dumps them when the
// run ends. A nil *tracer records nothing, which is how untraced runs call
// the same code.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

// span is one timed call into a layer. Parent indexes the span it nests
// under (-1 for none); Key is the tick or request the call served, shared
// by every span of that tick or request.
type span struct {
	Name   string `json:"name"`
	Key    int64  `json:"key"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open starts a span and returns its index (-1 on a nil tracer).
func (t *tracer) open(name string, parent int, key int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Key: key, Parent: parent, Start: now})
	return len(t.spans) - 1
}

// close ends span i and returns its duration.
func (t *tracer) close(i int) time.Duration {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = now
	return time.Duration(now - t.spans[i].Start)
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stepRecord is what the transport decorator saw of one Step call.
type stepRecord struct {
	wall      time.Duration
	busy      int64 // ΣStepNanos over the tick's exchanges
	msgs      int   // messages the shards sent
	delivered int   // mailbox stimuli the shards injected
}

// tracedTransport decorates a population.Transport, timing every call
// the engine makes into it. Calls nest under the span in parent, which the
// caller sets before driving the engine.
type tracedTransport struct {
	population.Transport
	tr     *tracer
	parent int
	last   stepRecord
	// export and install hold the duration of the latest call of each.
	export, install time.Duration
}

func (t *tracedTransport) Step(tick int, mail [][]core.Stimulus) ([]*population.ShardExchange, error) {
	sp := t.tr.open("transport.step", t.parent, int64(tick))
	outs, err := t.Transport.Step(tick, mail)
	rec := stepRecord{wall: t.tr.close(sp)}
	for _, o := range outs {
		rec.busy += o.StepNanos
		rec.msgs += len(o.Msgs)
		rec.delivered += o.Delivered
	}
	t.last = rec
	return outs, err
}

func (t *tracedTransport) Export() (*population.RangeState, error) {
	sp := t.tr.open("transport.export", t.parent, -1)
	rs, err := t.Transport.Export()
	t.export = t.tr.close(sp)
	return rs, err
}

func (t *tracedTransport) Install(rs *population.RangeState) error {
	sp := t.tr.open("transport.install", t.parent, -1)
	err := t.Transport.Install(rs)
	t.install = t.tr.close(sp)
	return err
}

// countingListener counts every byte read from and written to the
// connections it accepts.
type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, n: l.n}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// spanHeader and keyHeader carry the generator's span index and request
// id to the server, so a handler span names the request span that caused
// it and shares its key.
const (
	spanHeader = "X-Perfbench-Span"
	keyHeader  = "X-Perfbench-Key"
)

// tracedHandler times each request through the wrapped handler, by
// operation.
type tracedHandler struct {
	next http.Handler
	tr   *tracer
	mu   sync.Mutex
	ms   [opKinds][]float64
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	op := classify(r)
	parent, err := strconv.Atoi(r.Header.Get(spanHeader))
	if err != nil {
		parent = -1
	}
	key, err := strconv.ParseInt(r.Header.Get(keyHeader), 10, 64)
	if err != nil {
		key = -1
	}
	sp := h.tr.open("http."+opNames[op], parent, key)
	h.next.ServeHTTP(w, r)
	d := h.tr.close(sp)
	h.mu.Lock()
	h.ms[op] = append(h.ms[op], ms(d))
	h.mu.Unlock()
}
