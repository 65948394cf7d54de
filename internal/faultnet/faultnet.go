// Package faultnet injects deterministic network faults into net.Conn and
// net.Listener values, so the federation layer's failure handling can be
// tested the same way the rest of the reproduction is tested: seeded and
// bit-identical across runs.
//
// An Injector owns a seeded fault schedule. Every connection it wraps draws
// a private sub-stream from that schedule at wrap time, and each Read/Write
// on the wrapped connection consumes exactly one draw, so the sequence of
// injected faults on a connection is a pure function of (injector seed,
// wrap order, operation index) — independent of goroutine interleaving
// across connections. The injector records every injected fault in an event
// log that tests compare across runs to prove the schedule replays.
//
// Four faults are modelled, mirroring how real edge links die:
//
//   - delay: the operation completes only after an injected latency
//     (a straggler; pairs with the fed server's read deadlines);
//   - drop: the connection is closed before the operation runs
//     (a device power-cycling mid-round);
//   - truncate: the operation moves only a prefix of the requested bytes
//     and then the connection is closed (a frame cut mid-flight — the peer
//     observes a short read);
//   - close faults additionally exercise double-Close paths: a dropped
//     connection is already closed when its owner's deferred Close runs.
//
// The package never reads the wall clock; delays go through an injected
// sleep function (the noclock analyzer enforces this), and randomness only
// flows from the injector's seed (norand).
package faultnet

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"
)

// Kind identifies one injected fault.
type Kind uint8

const (
	// None: the operation proceeds untouched.
	None Kind = iota
	// Delay: the operation proceeds after Config.Delay of injected latency.
	Delay
	// Drop: the connection is closed and the operation fails.
	Drop
	// Truncate: a prefix of the bytes is moved, then the connection is
	// closed.
	Truncate
)

// String returns the fault name for logs and test failure messages.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Delay:
		return "delay"
	case Drop:
		return "drop"
	case Truncate:
		return "truncate"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ErrInjected is wrapped by every error the injector fabricates, so tests
// and callers can tell an injected fault from a genuine transport failure
// with errors.Is.
var ErrInjected = errors.New("faultnet: injected fault")

// Config sets the per-operation fault probabilities of an Injector. Exactly
// one uniform draw is consumed per Read/Write, partitioned as
// [0,Drop) → drop, [Drop,Drop+Truncate) → truncate,
// [Drop+Truncate,Drop+Truncate+Delay) → delay, rest → no fault.
type Config struct {
	// DropRate is the probability an operation kills the connection.
	DropRate float64
	// TruncateRate is the probability an operation moves only a prefix of
	// its bytes before the connection dies.
	TruncateRate float64
	// DelayRate is the probability an operation is delayed by Delay.
	DelayRate float64
	// Delay is the injected latency of a delay fault.
	Delay time.Duration
	// Sleep performs delay faults. It must be non-nil when DelayRate > 0;
	// production passes time.Sleep, tests pass a fake and observe the
	// requested durations. The package itself never touches the wall clock.
	Sleep func(time.Duration)
}

// Validate reports the first inconsistency in the configuration.
func (c Config) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{{"DropRate", c.DropRate}, {"TruncateRate", c.TruncateRate}, {"DelayRate", c.DelayRate}} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("faultnet: %s %v out of [0,1]", p.name, p.v)
		}
	}
	if c.DropRate+c.TruncateRate+c.DelayRate > 1 {
		return fmt.Errorf("faultnet: fault rates sum to %v > 1",
			c.DropRate+c.TruncateRate+c.DelayRate)
	}
	if c.DelayRate > 0 && c.Sleep == nil {
		return fmt.Errorf("faultnet: DelayRate %v needs an injected Sleep", c.DelayRate)
	}
	if c.DelayRate > 0 && c.Delay <= 0 {
		return fmt.Errorf("faultnet: DelayRate %v needs a positive Delay", c.DelayRate)
	}
	return nil
}

// Event is one injected fault, identified by the connection's wrap sequence
// within its injector and the operation's sequence within the connection.
type Event struct {
	// Conn is the connection's 0-based wrap sequence within the injector.
	Conn int
	// Op is the 0-based operation index on that connection.
	Op int
	// Write distinguishes write operations from reads.
	Write bool
	// Kind is the injected fault (never None; untouched ops are not logged).
	Kind Kind
}

// Injector hands out fault-wrapped connections whose schedules derive from
// one seed. Safe for concurrent use; determinism of a connection's schedule
// additionally requires that Wrap calls happen in a fixed order (e.g. one
// injector per client, wrapping that client's successive reconnects).
type Injector struct {
	cfg Config

	mu     sync.Mutex
	rng    *rand.Rand
	conns  int
	events []Event
}

// NewInjector builds an injector with the given seed and fault
// configuration. Panics on an invalid configuration — a fault plan is test
// infrastructure, and a silently clamped rate would fake coverage.
func NewInjector(seed int64, cfg Config) *Injector {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Injector{cfg: cfg, rng: rand.New(rand.NewSource(seed))}
}

// Wrap returns c with the injector's next fault schedule attached. The
// wrapped connection consumes one schedule draw per Read/Write.
func (in *Injector) Wrap(c net.Conn) *Conn {
	in.mu.Lock()
	id := in.conns
	in.conns++
	// Each connection gets a private generator seeded from the injector
	// stream, so its op schedule is independent of other connections'
	// operation counts.
	sub := rand.New(rand.NewSource(in.rng.Int63()))
	in.mu.Unlock()
	return &Conn{inner: c, in: in, id: id, rng: sub}
}

// Listener wraps ln so every accepted connection is fault-wrapped by the
// injector, in accept order.
func (in *Injector) Listener(ln net.Listener) net.Listener {
	return &listener{Listener: ln, in: in}
}

// Events returns the injected-fault log, sorted by (Conn, Op) so the result
// is deterministic even when connections run on concurrent goroutines.
func (in *Injector) Events() []Event {
	in.mu.Lock()
	out := append([]Event(nil), in.events...)
	in.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Conn != out[j].Conn {
			return out[i].Conn < out[j].Conn
		}
		return out[i].Op < out[j].Op
	})
	return out
}

func (in *Injector) record(e Event) {
	in.mu.Lock()
	in.events = append(in.events, e)
	in.mu.Unlock()
}

type listener struct {
	net.Listener
	in *Injector
}

func (l *listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.in.Wrap(c), nil
}

// Conn is a fault-wrapped connection. All net.Conn methods other than
// Read/Write pass through to the wrapped connection.
type Conn struct {
	inner net.Conn
	in    *Injector
	id    int

	mu  sync.Mutex
	rng *rand.Rand
	ops int
}

var _ net.Conn = (*Conn)(nil)

// next draws the fault for the current operation and logs it.
func (c *Conn) next(write bool) Kind {
	c.mu.Lock()
	op := c.ops
	c.ops++
	u := c.rng.Float64()
	c.mu.Unlock()

	cfg := c.in.cfg
	var kind Kind
	switch {
	case u < cfg.DropRate:
		kind = Drop
	case u < cfg.DropRate+cfg.TruncateRate:
		kind = Truncate
	case u < cfg.DropRate+cfg.TruncateRate+cfg.DelayRate:
		kind = Delay
	default:
		return None
	}
	c.in.record(Event{Conn: c.id, Op: op, Write: write, Kind: kind})
	return kind
}

// Read applies the scheduled fault, then reads from the wrapped connection.
func (c *Conn) Read(p []byte) (int, error) {
	switch c.next(false) {
	case Drop:
		_ = c.inner.Close()
		return 0, fmt.Errorf("read: connection dropped: %w", ErrInjected)
	case Truncate:
		// Deliver a strict prefix of the request, then kill the connection:
		// the next read observes the death, exactly like a frame cut on the
		// wire.
		n := 0
		if len(p) > 1 {
			var err error
			n, err = c.inner.Read(p[:(len(p)+1)/2])
			if err != nil {
				return n, err
			}
		}
		_ = c.inner.Close()
		return n, nil
	case Delay:
		c.in.cfg.Sleep(c.in.cfg.Delay)
	}
	return c.inner.Read(p)
}

// Write applies the scheduled fault, then writes to the wrapped connection.
func (c *Conn) Write(p []byte) (int, error) {
	switch c.next(true) {
	case Drop:
		_ = c.inner.Close()
		return 0, fmt.Errorf("write: connection dropped: %w", ErrInjected)
	case Truncate:
		n, err := c.inner.Write(p[:len(p)/2])
		_ = c.inner.Close()
		if err != nil {
			return n, err
		}
		return n, fmt.Errorf("write: frame truncated after %d of %d bytes: %w",
			n, len(p), ErrInjected)
	case Delay:
		c.in.cfg.Sleep(c.in.cfg.Delay)
	}
	return c.inner.Write(p)
}

// Close closes the wrapped connection. After a drop or truncate fault this
// is a double close; the wrapped error is passed through untouched so
// owners exercise their close-error paths.
func (c *Conn) Close() error { return c.inner.Close() }

// LocalAddr passes through.
func (c *Conn) LocalAddr() net.Addr { return c.inner.LocalAddr() }

// RemoteAddr passes through.
func (c *Conn) RemoteAddr() net.Addr { return c.inner.RemoteAddr() }

// SetDeadline passes through.
func (c *Conn) SetDeadline(t time.Time) error { return c.inner.SetDeadline(t) }

// SetReadDeadline passes through.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.inner.SetReadDeadline(t) }

// SetWriteDeadline passes through.
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.inner.SetWriteDeadline(t) }
