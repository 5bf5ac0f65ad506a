// Package faultnet injects deterministic, seedable network faults for
// testing the Besteffs distributed path: latency, dropped connections, torn
// (partial) writes and mid-stream resets. An Injector wraps net.Conn,
// net.Listener or io.Writer values; every probabilistic decision is drawn
// from one seeded random source, so a failing test reproduces exactly from
// its seed. Wrappers compose with net.Pipe for in-process tests and with
// real listeners for end-to-end ones.
//
// The package lives under internal because it is test infrastructure, but
// it is a normal (non _test) package so any package's tests can import it.
package faultnet

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"besteffs/internal/metrics"
)

// ErrInjected reports a failure produced by fault injection rather than the
// real network.
var ErrInjected = errors.New("faultnet: injected fault")

// Plan configures which faults an Injector produces. Zero-value fields
// disable the corresponding fault, so Plan{} injects nothing.
type Plan struct {
	// DropRate is the probability per I/O operation that the connection
	// is closed and the operation fails with ErrInjected.
	DropRate float64
	// TearRate is the probability per Write that only a prefix of the
	// buffer reaches the peer before the connection resets.
	TearRate float64
	// MaxDelay adds a uniform random latency in [0, MaxDelay) to each
	// I/O operation.
	MaxDelay time.Duration
	// ResetAfterBytes resets every wrapped connection once its total
	// written bytes exceed this budget (0 disables). Like a real RST, the
	// write that crosses the budget is truncated at the boundary: bytes
	// beyond it never reach the peer, even inside one large write.
	ResetAfterBytes int64
	// FailDials makes the first N Accept calls on a wrapped listener
	// fail with ErrInjected, simulating unreachable nodes at startup.
	FailDials int
}

// Injector draws fault decisions from one seeded source. It is safe for
// concurrent use; all wrapped values share the injector's plan and
// counters.
type Injector struct {
	mu            sync.Mutex
	rng           *rand.Rand
	plan          Plan
	failDialsLeft int

	counters faultCounters
}

// faultCounters holds one typed metrics.Counter per fault kind. The zero
// value is ready to use; counters are exported through Injector.Counters.
type faultCounters struct {
	delays       metrics.Counter
	drops        metrics.Counter
	tears        metrics.Counter
	resets       metrics.Counter
	dialFailures metrics.Counter
}

// inc bumps the counter for kind; unknown kinds are ignored (no fault site
// passes one).
func (fc *faultCounters) inc(kind string) {
	switch kind {
	case "delays":
		fc.delays.Inc()
	case "drops":
		fc.drops.Inc()
	case "tears":
		fc.tears.Inc()
	case "resets":
		fc.resets.Inc()
	case "dial_failures":
		fc.dialFailures.Inc()
	}
}

// NewInjector returns an injector with the given seed and plan.
func NewInjector(seed int64, plan Plan) *Injector {
	return &Injector{
		rng:           rand.New(rand.NewSource(seed)),
		plan:          plan,
		failDialsLeft: plan.FailDials,
	}
}

// Counters reports how many faults of each kind were injected
// ("delays", "drops", "tears", "resets", "dial_failures").
func (inj *Injector) Counters() map[string]int64 {
	return map[string]int64{
		"delays":        inj.counters.delays.Value(),
		"drops":         inj.counters.drops.Value(),
		"tears":         inj.counters.tears.Value(),
		"resets":        inj.counters.resets.Value(),
		"dial_failures": inj.counters.dialFailures.Value(),
	}
}

// delay returns the injected latency for one operation.
func (inj *Injector) delay() time.Duration {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if inj.plan.MaxDelay <= 0 {
		return 0
	}
	return time.Duration(inj.rng.Int63n(int64(inj.plan.MaxDelay)))
}

// roll returns true with probability p.
func (inj *Injector) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.rng.Float64() < p
}

// tearPoint picks how many of n bytes a torn write delivers.
func (inj *Injector) tearPoint(n int) int {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if n <= 1 {
		return 0
	}
	return inj.rng.Intn(n)
}

// Conn wraps c with the injector's faults.
func (inj *Injector) Conn(c net.Conn) net.Conn {
	return &conn{Conn: c, inj: inj}
}

// Listener wraps l; accepted connections are wrapped with the injector's
// faults, and the first Plan.FailDials accepts fail with ErrInjected.
func (inj *Injector) Listener(l net.Listener) net.Listener {
	return &listener{Listener: l, inj: inj}
}

// Writer wraps w so writes suffer the injector's tear faults; it is the
// file-backed analogue of a torn connection (journal crash tests).
func (inj *Injector) Writer(w io.Writer) io.Writer {
	return &writer{w: w, inj: inj}
}

// conn is a fault-injecting net.Conn.
type conn struct {
	net.Conn
	inj *Injector

	mu      sync.Mutex
	written int64
	broken  bool
}

// fail marks the connection broken and closes the underlying conn.
func (c *conn) fail(kind string) error {
	c.inj.counters.inc(kind)
	c.mu.Lock()
	c.broken = true
	c.mu.Unlock()
	c.Conn.Close()
	return fmt.Errorf("%w: %s", ErrInjected, kind)
}

func (c *conn) isBroken() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.broken
}

// Read implements net.Conn with latency and drop faults.
func (c *conn) Read(p []byte) (int, error) {
	if c.isBroken() {
		return 0, fmt.Errorf("%w: connection dropped", ErrInjected)
	}
	if d := c.inj.delay(); d > 0 {
		c.inj.counters.inc("delays")
		time.Sleep(d)
	}
	if c.inj.roll(c.inj.plan.DropRate) {
		return 0, c.fail("drops")
	}
	return c.Conn.Read(p)
}

// Write implements net.Conn with latency, drop, tear and reset faults.
func (c *conn) Write(p []byte) (int, error) {
	if c.isBroken() {
		return 0, fmt.Errorf("%w: connection dropped", ErrInjected)
	}
	if d := c.inj.delay(); d > 0 {
		c.inj.counters.inc("delays")
		time.Sleep(d)
	}
	if c.inj.roll(c.inj.plan.DropRate) {
		return 0, c.fail("drops")
	}
	if c.inj.roll(c.inj.plan.TearRate) {
		k := c.inj.tearPoint(len(p))
		if k > 0 {
			c.Conn.Write(p[:k])
		}
		return k, c.fail("tears")
	}
	if budget := c.inj.plan.ResetAfterBytes; budget > 0 {
		c.mu.Lock()
		remain := budget - c.written
		c.mu.Unlock()
		if int64(len(p)) > remain {
			// This write crosses the budget: deliver only the bytes
			// within it, then reset. The tail is lost, as it would be
			// when a RST kills data queued behind it.
			n := 0
			if remain > 0 {
				n, _ = c.Conn.Write(p[:remain])
			}
			c.mu.Lock()
			c.written += int64(n)
			c.mu.Unlock()
			return n, c.fail("resets")
		}
	}
	n, err := c.Conn.Write(p)
	if err != nil {
		return n, err
	}
	c.mu.Lock()
	c.written += int64(n)
	c.mu.Unlock()
	return n, nil
}

// listener wraps accepts with dial-failure and connection faults.
type listener struct {
	net.Listener
	inj *Injector
}

// Accept implements net.Listener.
func (l *listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.inj.mu.Lock()
	failNow := l.inj.failDialsLeft > 0
	if failNow {
		l.inj.failDialsLeft--
	}
	l.inj.mu.Unlock()
	if failNow {
		l.inj.counters.inc("dial_failures")
		c.Close()
		return nil, fmt.Errorf("%w: dial refused", ErrInjected)
	}
	return l.inj.Conn(c), nil
}

// writer injects tear faults into a plain io.Writer.
type writer struct {
	w      io.Writer
	inj    *Injector
	mu     sync.Mutex
	broken bool
}

// Write implements io.Writer: once a tear fires, the writer stays broken,
// mirroring a crashed process that never writes again.
func (w *writer) Write(p []byte) (int, error) {
	w.mu.Lock()
	broken := w.broken
	w.mu.Unlock()
	if broken {
		return 0, fmt.Errorf("%w: writer torn", ErrInjected)
	}
	if w.inj.roll(w.inj.plan.TearRate) {
		k := w.inj.tearPoint(len(p))
		if k > 0 {
			w.w.Write(p[:k])
		}
		w.inj.counters.inc("tears")
		w.mu.Lock()
		w.broken = true
		w.mu.Unlock()
		return k, fmt.Errorf("%w: torn write", ErrInjected)
	}
	return w.w.Write(p)
}

// LimitWriter returns an io.Writer that passes through the first n bytes
// and fails every write after the budget is exhausted, possibly mid-buffer
// -- the deterministic "process died here" primitive behind torn-frame
// tests. Unlike Injector faults it involves no randomness at all.
func LimitWriter(w io.Writer, n int64) io.Writer {
	return NewWriteBudget(n).Writer(w)
}

// WriteBudget is a byte budget shared by any number of writers: the total
// bytes written through all of them pass through until the budget runs out,
// then every write fails (the last one possibly mid-buffer). It extends
// LimitWriter across file boundaries -- a segmented WAL rotates through
// several files, and "the process died after byte N" must cut the
// concatenated record stream at exactly N no matter which segment byte N
// landed in.
type WriteBudget struct {
	mu   sync.Mutex
	left int64
}

// NewWriteBudget returns a budget of n bytes.
func NewWriteBudget(n int64) *WriteBudget {
	return &WriteBudget{left: n}
}

// Remaining returns the unspent bytes.
func (b *WriteBudget) Remaining() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.left
}

// Writer wraps w so its writes draw down the shared budget.
func (b *WriteBudget) Writer(w io.Writer) io.Writer {
	return &budgetWriter{w: w, b: b}
}

type budgetWriter struct {
	w io.Writer
	b *WriteBudget
}

// Write implements io.Writer.
func (bw *budgetWriter) Write(p []byte) (int, error) {
	bw.b.mu.Lock()
	defer bw.b.mu.Unlock()
	if bw.b.left <= 0 {
		return 0, fmt.Errorf("%w: write budget exhausted", ErrInjected)
	}
	if int64(len(p)) <= bw.b.left {
		n, err := bw.w.Write(p)
		bw.b.left -= int64(n)
		return n, err
	}
	n, err := bw.w.Write(p[:bw.b.left])
	bw.b.left -= int64(n)
	if err != nil {
		return n, err
	}
	return n, fmt.Errorf("%w: write budget exhausted", ErrInjected)
}
