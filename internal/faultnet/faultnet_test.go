package faultnet

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// driveOps consumes n operation draws on a wrapped conn over an in-memory
// pipe, alternating write and read, and returns the per-op outcomes. The
// peer end echoes whatever it receives.
func driveOps(t *testing.T, c *Conn, peer net.Conn, n int) []error {
	t.Helper()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Echo until the pipe dies; errors here are the test's signal on
		// the driving side, not failures.
		buf := make([]byte, 64)
		for {
			k, err := peer.Read(buf)
			if err != nil {
				return
			}
			if _, err := peer.Write(buf[:k]); err != nil {
				return
			}
		}
	}()
	outcomes := make([]error, 0, n)
	buf := make([]byte, 4)
	for i := 0; i < n; i++ {
		var err error
		if i%2 == 0 {
			_, err = c.Write([]byte{1, 2, 3, 4})
		} else {
			_, err = c.Read(buf)
		}
		outcomes = append(outcomes, err)
		if err != nil {
			// The schedule keeps advancing per op even after the conn died;
			// keep driving so op counts stay comparable.
			continue
		}
	}
	_ = c.Close()
	_ = peer.Close()
	wg.Wait()
	return outcomes
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"zero", Config{}, true},
		{"rates", Config{DropRate: 0.2, TruncateRate: 0.2}, true},
		{"negative", Config{DropRate: -0.1}, false},
		{"above one", Config{DelayRate: 1.5, Delay: time.Second, Sleep: func(time.Duration) {}}, false},
		{"sum above one", Config{DropRate: 0.6, TruncateRate: 0.6}, false},
		{"delay without sleep", Config{DelayRate: 0.5, Delay: time.Second}, false},
		{"delay without duration", Config{DelayRate: 0.5, Sleep: func(time.Duration) {}}, false},
		{"delay complete", Config{DelayRate: 0.5, Delay: time.Second, Sleep: func(time.Duration) {}}, true},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestNewInjectorPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewInjector accepted an invalid config")
		}
	}()
	NewInjector(1, Config{DropRate: 2})
}

// TestScheduleReplaysBitIdentically is the core determinism property: the
// same seed, wrap order and op sequence produce the same fault events.
func TestScheduleReplaysBitIdentically(t *testing.T) {
	run := func() []Event {
		in := NewInjector(42, Config{DropRate: 0.2, TruncateRate: 0.15, DelayRate: 0.25,
			Delay: time.Millisecond, Sleep: func(time.Duration) {}})
		for conn := 0; conn < 4; conn++ {
			a, b := net.Pipe()
			driveOps(t, in.Wrap(a), b, 20)
		}
		return in.Events()
	}
	first, second := run(), run()
	if len(first) == 0 {
		t.Fatal("no faults injected; rates too low for the op budget")
	}
	if len(first) != len(second) {
		t.Fatalf("replay produced %d events, want %d", len(second), len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, first[i], second[i])
		}
	}
}

// TestScheduleIndependentAcrossConns: a connection's schedule must not
// depend on how many ops other connections performed.
func TestScheduleIndependentAcrossConns(t *testing.T) {
	perConn := func(opsOnFirst int) []Event {
		in := NewInjector(7, Config{DropRate: 0.3})
		a1, b1 := net.Pipe()
		driveOps(t, in.Wrap(a1), b1, opsOnFirst)
		a2, b2 := net.Pipe()
		driveOps(t, in.Wrap(a2), b2, 30)
		var second []Event
		for _, e := range in.Events() {
			if e.Conn == 1 {
				second = append(second, e)
			}
		}
		return second
	}
	short, long := perConn(3), perConn(40)
	if len(short) != len(long) {
		t.Fatalf("conn 1 schedule changed with conn 0's op count: %d vs %d events", len(short), len(long))
	}
	for i := range short {
		if short[i] != long[i] {
			t.Fatalf("conn 1 event %d differs: %+v vs %+v", i, short[i], long[i])
		}
	}
}

func TestSeedsDiverge(t *testing.T) {
	events := func(seed int64) []Event {
		in := NewInjector(seed, Config{DropRate: 0.5})
		a, b := net.Pipe()
		driveOps(t, in.Wrap(a), b, 10)
		return in.Events()
	}
	a, b := events(1), events(2)
	same := len(a) == len(b)
	if same {
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 produced identical fault schedules")
	}
}

func TestDropKillsConnection(t *testing.T) {
	in := NewInjector(1, Config{DropRate: 1})
	a, b := net.Pipe()
	c := in.Wrap(a)
	_, err := c.Write([]byte{1})
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("dropped write error = %v, want ErrInjected", err)
	}
	// The peer observes the death as EOF/closed.
	if _, err := b.Read(make([]byte, 1)); err == nil {
		t.Fatal("peer read succeeded after drop")
	}
	// The owner's own Close is now a double close; whether it errors is
	// transport-specific (TCP does, net.Pipe does not) — it must simply
	// pass the transport's answer through, not panic or block.
	_ = c.Close()
}

func TestTruncateWriteDeliversPrefixThenDies(t *testing.T) {
	in := NewInjector(1, Config{TruncateRate: 1})
	a, b := net.Pipe()
	c := in.Wrap(a)

	payload := []byte("0123456789abcdef")
	var wg sync.WaitGroup
	var got []byte
	wg.Add(1)
	go func() {
		defer wg.Done()
		data, _ := io.ReadAll(b)
		got = data
	}()
	n, err := c.Write(payload)
	wg.Wait()
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("truncated write error = %v, want ErrInjected", err)
	}
	if n != len(payload)/2 {
		t.Fatalf("truncated write reported %d bytes, want %d", n, len(payload)/2)
	}
	if !bytes.Equal(got, payload[:len(payload)/2]) {
		t.Fatalf("peer received %q, want the %d-byte prefix", got, len(payload)/2)
	}
}

func TestTruncateReadDeliversPrefixThenDies(t *testing.T) {
	in := NewInjector(1, Config{TruncateRate: 1})
	a, b := net.Pipe()
	c := in.Wrap(a)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = b.Write([]byte("0123456789abcdef"))
	}()
	buf := make([]byte, 8)
	n, err := c.Read(buf)
	if err != nil {
		t.Fatalf("truncated read errored immediately: %v", err)
	}
	if n == 0 || n > len(buf)/2+1 {
		t.Fatalf("truncated read returned %d bytes, want a short prefix", n)
	}
	// The connection is dead now: the next read must fail, so a framed
	// decoder (io.ReadFull) can never block forever on the missing suffix.
	if _, err := c.Read(buf); err == nil {
		t.Fatal("read after truncation succeeded")
	}
	wg.Wait()
}

func TestDelayUsesInjectedSleep(t *testing.T) {
	var slept []time.Duration
	in := NewInjector(1, Config{DelayRate: 1, Delay: 250 * time.Millisecond,
		Sleep: func(d time.Duration) { slept = append(slept, d) }})
	a, b := net.Pipe()
	c := in.Wrap(a)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 1)
		_, _ = b.Read(buf)
	}()
	if _, err := c.Write([]byte{1}); err != nil {
		t.Fatalf("delayed write failed: %v", err)
	}
	wg.Wait()
	if len(slept) != 1 || slept[0] != 250*time.Millisecond {
		t.Fatalf("injected sleeps = %v, want one 250ms sleep", slept)
	}
}

func TestListenerWrapsAcceptedConns(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	in := NewInjector(3, Config{DropRate: 1})
	wrapped := in.Listener(ln)
	defer wrapped.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return
		}
		defer c.Close()
		// Wait for the server side to die.
		_, _ = c.Read(make([]byte, 1))
	}()
	c, err := wrapped.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.(*Conn); !ok {
		t.Fatalf("accepted conn is %T, want *faultnet.Conn", c)
	}
	if _, err := c.Read(make([]byte, 1)); !errors.Is(err, ErrInjected) {
		t.Fatalf("accepted conn read error = %v, want injected drop", err)
	}
	wg.Wait()
	if in.conns != 1 {
		t.Fatalf("injector wrapped %d conns, want 1", in.conns)
	}
}

func TestNoFaultsPassThrough(t *testing.T) {
	in := NewInjector(9, Config{})
	a, b := net.Pipe()
	c := in.Wrap(a)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 5)
		if _, err := io.ReadFull(b, buf); err == nil {
			_, _ = b.Write(buf)
		}
	}()
	if _, err := c.Write([]byte("hello")); err != nil {
		t.Fatalf("clean write failed: %v", err)
	}
	buf := make([]byte, 5)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatalf("clean read failed: %v", err)
	}
	if string(buf) != "hello" {
		t.Fatalf("echoed %q", buf)
	}
	wg.Wait()
	if got := in.Events(); len(got) != 0 {
		t.Fatalf("zero-rate injector logged events: %+v", got)
	}
}
