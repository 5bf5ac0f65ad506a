package server

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"besteffs/internal/client"
	"besteffs/internal/importance"
	"besteffs/internal/object"
	"besteffs/internal/policy"
	"besteffs/internal/wire"
)

const day = importance.Day

// manualClock is a test clock advanced explicitly.
type manualClock struct {
	mu  sync.Mutex
	now time.Duration
}

func (c *manualClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *manualClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now += d
}

// startNode starts a server on a loopback listener and returns a connected
// client plus the server and clock. Everything shuts down with the test.
func startNode(t *testing.T, capacity int64) (*client.Client, *Server, *manualClock) {
	t.Helper()
	clock := &manualClock{}
	srv, err := New(EngineConfig{Capacity: capacity, Policy: policy.TemporalImportance{}}, WithClock(clock.Now))
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, l) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	c, err := client.Connect(l.Addr().String(), client.WithTimeout(time.Second))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c, srv, clock
}

func TestPutGetDeleteOverTCP(t *testing.T) {
	c, _, _ := startNode(t, 1<<20)
	payload := []byte("lecture video bytes")
	res, err := c.PutCtx(context.Background(), client.PutRequest{
		ID:         "cs101/l1",
		Owner:      "prof",
		Class:      object.ClassUniversity,
		Importance: importance.TwoStep{Plateau: 1, Persist: 15 * day, Wane: 15 * day},
		Payload:    payload,
	})
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	if !res.Admitted || len(res.Evicted) != 0 {
		t.Fatalf("Put result = %+v", res)
	}

	got, err := c.GetCtx(context.Background(), "cs101/l1")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if string(got.Payload) != string(payload) {
		t.Errorf("payload = %q", got.Payload)
	}
	if got.Owner != "prof" || got.Class != object.ClassUniversity || got.Version != 1 {
		t.Errorf("metadata = %+v", got)
	}
	if got.CurrentImportance != 1 {
		t.Errorf("current importance = %v, want 1 (at plateau)", got.CurrentImportance)
	}

	if err := c.DeleteCtx(context.Background(), "cs101/l1"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := c.GetCtx(context.Background(), "cs101/l1"); !errors.Is(err, client.ErrNotFound) {
		t.Errorf("Get after delete err = %v, want ErrNotFound", err)
	}
	if err := c.DeleteCtx(context.Background(), "cs101/l1"); !errors.Is(err, client.ErrNotFound) {
		t.Errorf("second Delete err = %v, want ErrNotFound", err)
	}
}

func TestDuplicatePut(t *testing.T) {
	c, _, _ := startNode(t, 1<<20)
	req := client.PutRequest{
		ID: "dup", Importance: importance.Constant{Level: 1}, Payload: []byte("x"),
	}
	if _, err := c.PutCtx(context.Background(), req); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if _, err := c.PutCtx(context.Background(), req); !errors.Is(err, client.ErrDuplicate) {
		t.Errorf("duplicate Put err = %v, want ErrDuplicate", err)
	}
}

func TestPutValidation(t *testing.T) {
	c, _, _ := startNode(t, 1<<20)
	if _, err := c.PutCtx(context.Background(), client.PutRequest{
		ID: "empty", Importance: importance.Constant{Level: 1},
	}); err == nil {
		t.Error("empty payload accepted")
	}
	if _, err := c.PutCtx(context.Background(), client.PutRequest{
		Importance: importance.Constant{Level: 1}, Payload: []byte("x"),
	}); err == nil {
		t.Error("empty ID accepted")
	}
}

func TestPreemptionOverTCP(t *testing.T) {
	c, _, clock := startNode(t, 100)
	low := client.PutRequest{
		ID:         "low",
		Importance: importance.TwoStep{Plateau: 0.4, Persist: 10 * day, Wane: 0},
		Payload:    make([]byte, 100),
	}
	if res, err := c.PutCtx(context.Background(), low); err != nil || !res.Admitted {
		t.Fatalf("Put low = %+v, %v", res, err)
	}

	// Equal importance cannot preempt: rejected, boundary reported.
	equal := client.PutRequest{
		ID:         "equal",
		Importance: importance.Constant{Level: 0.4},
		Payload:    make([]byte, 50),
	}
	res, err := c.PutCtx(context.Background(), equal)
	if err != nil {
		t.Fatalf("Put equal: %v", err)
	}
	if res.Admitted || res.Boundary != 0.4 {
		t.Fatalf("equal Put = %+v, want rejection at boundary 0.4", res)
	}

	// Probe agrees.
	admissible, boundary, err := c.ProbeCtx(context.Background(), 50, importance.Constant{Level: 0.4})
	if err != nil {
		t.Fatalf("Probe: %v", err)
	}
	if admissible || boundary != 0.4 {
		t.Errorf("Probe = %v, %v", admissible, boundary)
	}

	// Higher importance preempts and reports the victim.
	high := client.PutRequest{
		ID:         "high",
		Importance: importance.Constant{Level: 0.9},
		Payload:    make([]byte, 80),
	}
	res, err = c.PutCtx(context.Background(), high)
	if err != nil {
		t.Fatalf("Put high: %v", err)
	}
	if !res.Admitted || len(res.Evicted) != 1 || res.Evicted[0] != "low" {
		t.Fatalf("high Put = %+v, want eviction of low", res)
	}
	// The evicted object's payload is gone with its metadata.
	if _, err := c.GetCtx(context.Background(), "low"); !errors.Is(err, client.ErrNotFound) {
		t.Errorf("evicted object still retrievable: %v", err)
	}

	// Aging works over the wire: advance past expiry and re-check.
	clock.Advance(30 * day)
	got, err := c.GetCtx(context.Background(), "high")
	if err != nil {
		t.Fatalf("Get high: %v", err)
	}
	if time.Duration(got.AgeNanos) < 30*day {
		t.Errorf("age = %v, want >= 30d", time.Duration(got.AgeNanos))
	}
	if got.CurrentImportance != 0.9 {
		t.Errorf("constant importance drifted: %v", got.CurrentImportance)
	}
}

func TestRejuvenateOverTCP(t *testing.T) {
	c, _, clock := startNode(t, 1000)
	if _, err := c.PutCtx(context.Background(), client.PutRequest{
		ID:         "v",
		Importance: importance.TwoStep{Plateau: 1, Persist: 10 * day, Wane: 10 * day},
		Payload:    make([]byte, 100),
	}); err != nil {
		t.Fatalf("Put: %v", err)
	}
	clock.Advance(15 * day)
	version, err := c.RejuvenateCtx(context.Background(), "v", importance.TwoStep{Plateau: 1, Persist: 30 * day, Wane: 0})
	if err != nil {
		t.Fatalf("Rejuvenate: %v", err)
	}
	if version != 2 {
		t.Errorf("version = %d, want 2", version)
	}
	got, err := c.GetCtx(context.Background(), "v")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if got.Version != 2 || got.CurrentImportance != 1 {
		t.Errorf("after rejuvenation: %+v", got)
	}
	if time.Duration(got.AgeNanos) > day {
		t.Errorf("age = %v, want re-aged near zero", time.Duration(got.AgeNanos))
	}
	// Errors travel cleanly.
	if _, err := c.RejuvenateCtx(context.Background(), "missing", importance.Constant{Level: 1}); !errors.Is(err, client.ErrNotFound) {
		t.Errorf("missing rejuvenate err = %v, want ErrNotFound", err)
	}
	if _, err := c.RejuvenateCtx(context.Background(), "v", importance.Dirac{}); err == nil {
		t.Error("expired replacement accepted over the wire")
	}
}

func TestUpdateOverTCP(t *testing.T) {
	c, _, clock := startNode(t, 1000)
	if _, err := c.PutCtx(context.Background(), client.PutRequest{
		ID:         "doc",
		Importance: importance.Constant{Level: 0.5},
		Payload:    []byte("version-one"),
	}); err != nil {
		t.Fatalf("Put: %v", err)
	}
	clock.Advance(day)
	res, err := c.UpdateCtx(context.Background(), client.PutRequest{
		ID:         "doc",
		Importance: importance.Constant{Level: 0.8},
		Payload:    []byte("version-two-bigger"),
	})
	if err != nil || !res.Admitted {
		t.Fatalf("Update = %+v, %v", res, err)
	}
	got, err := c.GetCtx(context.Background(), "doc")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if got.Version != 2 || string(got.Payload) != "version-two-bigger" ||
		got.CurrentImportance != 0.8 {
		t.Errorf("updated object = version %d, %q, importance %v",
			got.Version, got.Payload, got.CurrentImportance)
	}
	if time.Duration(got.AgeNanos) > day {
		t.Errorf("age = %v, want re-aged from the update", time.Duration(got.AgeNanos))
	}
	// Updating an absent object reports not-found.
	if _, err := c.UpdateCtx(context.Background(), client.PutRequest{
		ID: "ghost", Importance: importance.Constant{Level: 1}, Payload: []byte("x"),
	}); !errors.Is(err, client.ErrNotFound) {
		t.Errorf("Update absent err = %v, want ErrNotFound", err)
	}
}

func TestStatDensityList(t *testing.T) {
	c, _, _ := startNode(t, 1000)
	for i := 0; i < 3; i++ {
		if _, err := c.PutCtx(context.Background(), client.PutRequest{
			ID:         object.ID(fmt.Sprintf("o%d", i)),
			Importance: importance.Constant{Level: 0.5},
			Payload:    make([]byte, 100),
		}); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	st, err := c.StatCtx(context.Background())
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}
	if st.Capacity != 1000 || st.Used != 300 || st.Objects != 3 {
		t.Errorf("Stat = %+v", st)
	}
	if st.Density != 0.15 { // 300 bytes at importance 0.5 over 1000
		t.Errorf("density = %v, want 0.15", st.Density)
	}
	d, err := c.DensityCtx(context.Background())
	if err != nil || d != st.Density {
		t.Errorf("Density = %v, %v", d, err)
	}
	ids, err := c.ListCtx(context.Background())
	if err != nil || len(ids) != 3 {
		t.Fatalf("List = %v, %v", ids, err)
	}
	if ids[0] != "o0" || ids[1] != "o1" || ids[2] != "o2" {
		t.Errorf("List order = %v", ids)
	}
}

func TestConcurrentClients(t *testing.T) {
	c0, srv, _ := startNode(t, 1<<30)
	_ = c0
	addr := func() string {
		// startNode's client is already connected; open more via the
		// same server by asking the unit... we need the address, so
		// spin a second listener instead.
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- srv.Serve(ctx, l) }()
		t.Cleanup(func() {
			cancel()
			if err := <-done; err != nil {
				t.Errorf("Serve: %v", err)
			}
		})
		return l.Addr().String()
	}()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := client.Connect(addr, client.WithTimeout(time.Second))
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < 50; i++ {
				id := object.ID(fmt.Sprintf("w%d/o%d", w, i))
				if _, err := c.PutCtx(context.Background(), client.PutRequest{
					ID:         id,
					Importance: importance.Constant{Level: 0.5},
					Payload:    []byte("data"),
				}); err != nil {
					errs <- err
					return
				}
				if _, err := c.GetCtx(context.Background(), id); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("worker: %v", err)
	}
	if srv.Engine().Len() != 8*50 {
		t.Errorf("residents = %d, want 400", srv.Engine().Len())
	}
}

func TestGracefulShutdown(t *testing.T) {
	srv, err := New(EngineConfig{Capacity: 1000, Policy: policy.TemporalImportance{}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, l) }()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Serve after cancel = %v, want nil", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not return after cancel")
	}
}

func TestServerRejectsGarbageFrame(t *testing.T) {
	c, srv, _ := startNode(t, 1000)
	_ = srv
	// A valid client keeps working even after a bad actor sends garbage
	// on its own connection (the server just drops that connection).
	if _, err := c.PutCtx(context.Background(), client.PutRequest{
		ID: "ok", Importance: importance.Constant{Level: 1}, Payload: []byte("x"),
	}); err != nil {
		t.Fatalf("Put: %v", err)
	}
}

func TestMaintenanceSweep(t *testing.T) {
	c, srv, clock := startNode(t, 1000)
	if _, err := c.PutCtx(context.Background(), client.PutRequest{
		ID:         "ephemeral",
		Importance: importance.TwoStep{Plateau: 1, Persist: day, Wane: 0},
		Payload:    []byte("x"),
	}); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if _, err := c.PutCtx(context.Background(), client.PutRequest{
		ID:         "durable",
		Importance: importance.Constant{Level: 1},
		Payload:    []byte("y"),
	}); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// Expire the first object, then sweep: only it is reclaimed.
	if n := srv.SweepNow(); n != 0 {
		t.Fatalf("sweep before expiry reclaimed %d objects", n)
	}
	clock.Advance(2 * day)
	if n := srv.SweepNow(); n != 1 || srv.Engine().Len() != 1 {
		t.Fatalf("sweep reclaimed %d objects, %d residents left; want 1 and 1", n, srv.Engine().Len())
	}
	if _, err := c.GetCtx(context.Background(), "ephemeral"); !errors.Is(err, client.ErrNotFound) {
		t.Errorf("expired object still retrievable: %v", err)
	}
	if _, err := c.GetCtx(context.Background(), "durable"); err != nil {
		t.Errorf("durable object lost: %v", err)
	}
}

// TestEveryRequestOpDispatched walks wire's opcode table: the pinned golden
// request of every request op must be answered by something other than the
// unknown-op error, so an opcode added to the table without a dispatch arm
// fails here. (It replaces the wireexhaustive lint check: executeTraced's is
// the only switch over wire.Op left.)
func TestEveryRequestOpDispatched(t *testing.T) {
	srv, err := New(EngineConfig{Capacity: 1 << 20, Policy: policy.TemporalImportance{}})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	for _, op := range wire.RequestOps() {
		text, err := os.ReadFile(filepath.Join("..", "wire", "testdata", "golden", op.String()+".hex"))
		if err != nil {
			t.Fatalf("%v has no golden request: %v", op, err)
		}
		body, err := hex.DecodeString(strings.Join(strings.Fields(string(text)), ""))
		if err != nil {
			t.Fatalf("%v golden request: %v", op, err)
		}
		req, err := wire.Decode(body)
		if err != nil {
			t.Fatalf("%v golden request: %v", op, err)
		}
		res := srv.execute(req)
		if em, ok := res.(*wire.ErrorMsg); ok && em.Text == (&UnknownOpError{Op: op}).Error() {
			t.Errorf("%v is in wire's opcode table but executeTraced has no arm for it", op)
		}
	}
	if got := srv.met.unknownOps.Value(); got != 0 {
		t.Errorf("besteffs_unknown_ops_total = %d after only known requests, want 0", got)
	}
}

// TestUnknownOpRequest sends a response opcode as a request: the dispatch
// switch must answer with a typed unknown-op error and count it, never
// treat it as any real operation.
func TestUnknownOpRequest(t *testing.T) {
	srv, err := New(EngineConfig{Capacity: 1 << 20, Policy: policy.TemporalImportance{}})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	res := srv.execute(&wire.OK{})
	em, ok := res.(*wire.ErrorMsg)
	if !ok {
		t.Fatalf("execute(OpOK) = %T, want *wire.ErrorMsg", res)
	}
	if em.Code != wire.CodeBadRequest {
		t.Errorf("code = %v, want CodeBadRequest", em.Code)
	}
	want := (&UnknownOpError{Op: wire.OpOK}).Error()
	if em.Text != want {
		t.Errorf("text = %q, want %q", em.Text, want)
	}
	if got := srv.met.unknownOps.Value(); got != 1 {
		t.Errorf("besteffs_unknown_ops_total = %d, want 1", got)
	}
	// A real request must not touch the counter.
	if res := srv.execute(&wire.Density{}); res == nil {
		t.Fatal("execute(Density) returned nil")
	}
	if got := srv.met.unknownOps.Value(); got != 1 {
		t.Errorf("unknown-op counter moved on a known op: %d", got)
	}
}

// TestExpiredObjectLeavesTheCluster: a resident at importance zero is not
// advertised to anti-entropy before the sweep reclaims it, and a replica
// that arrives at importance zero is refused with a reason.
func TestExpiredObjectLeavesTheCluster(t *testing.T) {
	clock := &manualClock{}
	srv, err := New(EngineConfig{Capacity: 1000, Policy: policy.TemporalImportance{}}, WithClock(clock.Now))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	fading := importance.Linear{Start: 1, Expire: day}
	put := &wire.Put{ID: "fading", Importance: fading, Payload: []byte("x")}
	if res, ok := srv.execute(put).(*wire.PutResult); !ok || !res.Admitted {
		t.Fatalf("put: %+v", res)
	}
	if got := srv.IndexEntries(0.5); len(got) != 1 {
		t.Fatalf("index before expiry = %+v, want the one resident", got)
	}
	clock.Advance(day)
	if got := srv.IndexEntries(0.5); len(got) != 0 {
		t.Errorf("index after expiry = %+v, want none", got)
	}
	res := srv.execute(&wire.Replicate{ID: "late", Version: 1, Importance: fading,
		AgeNanos: int64(day), Payload: []byte("y")})
	if e, ok := res.(*wire.ErrorMsg); !ok || e.Code != wire.CodeBadRequest || !strings.Contains(e.Text, "replica already expired") {
		t.Errorf("expired replica answered %+v, want CodeBadRequest naming the expiry", res)
	}
	if _, err := srv.engine.Get("late"); err == nil {
		t.Error("the expired replica was admitted")
	}
}
