package fed

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"time"

	"fedpower/internal/nn"
)

// Defaults for a zero-valued Backoff.
const (
	defaultBackoffBase     = 100 * time.Millisecond
	defaultBackoffMax      = 5 * time.Second
	defaultBackoffAttempts = 3
)

// Backoff is a capped exponential retry policy: attempt k (0-based) waits
// Base·2^k, capped at Max, before trying again. With a Jitter source the
// wait is spread uniformly over [d/2, d] so a fleet of devices recovering
// from the same outage does not reconnect in lockstep; jitter draws come
// from the injected generator only, keeping retry schedules seeded and
// replayable. The zero value retries 3 times with 100ms base, 5s cap, no
// jitter, real sleeps.
type Backoff struct {
	// Attempts is the maximum number of consecutive failures tolerated
	// before giving up; 0 selects the default (3). 1 means no retry.
	Attempts int
	// Base is the pre-jitter wait before the first retry; 0 selects 100ms.
	Base time.Duration
	// Max caps the exponential growth; 0 selects 5s.
	Max time.Duration
	// Jitter, when non-nil, randomises each wait over [d/2, d].
	Jitter *rand.Rand
	// Sleep performs the wait; nil selects time.Sleep. Tests inject a fake
	// to observe the schedule without waiting.
	Sleep func(time.Duration)
}

// attempts returns the effective attempt budget.
func (b Backoff) attempts() int {
	if b.Attempts <= 0 {
		return defaultBackoffAttempts
	}
	return b.Attempts
}

// Delay returns the wait after the attempt-th consecutive failure
// (0-based), jittered when a source is configured.
func (b Backoff) Delay(attempt int) time.Duration {
	base, max := b.Base, b.Max
	if base <= 0 {
		base = defaultBackoffBase
	}
	if max <= 0 {
		max = defaultBackoffMax
	}
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	if b.Jitter != nil && d > 1 {
		half := int64(d / 2)
		d = time.Duration(half + b.Jitter.Int63n(half+1))
	}
	return d
}

// sleep performs the wait through the injected sleeper.
func (b Backoff) sleep(d time.Duration) {
	if b.Sleep != nil {
		b.Sleep(d)
		return
	}
	time.Sleep(d)
}

// DialRetry dials the aggregation server with the given identity, retrying
// transient failures under the backoff policy.
func DialRetry(addr string, id uint32, b Backoff) (*Conn, error) {
	var lastErr error
	for attempt := 0; attempt < b.attempts(); attempt++ {
		if attempt > 0 {
			b.sleep(b.Delay(attempt - 1))
		}
		c, err := DialID(addr, id)
		if err == nil {
			return c, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("fed: dial %s gave up after %d attempts: %w", addr, b.attempts(), lastErr)
}

// Participant is the resilient device-side driver of the TCP protocol: it
// dials, participates, and on a transport failure tears the connection down
// and reconnects under the backoff policy, rejoining the federation at the
// next broadcast (the server skips a dropped device for the rounds it
// misses and aggregates without it — quorum permitting). Local training
// errors are not retried: they mean this device is broken, not the link.
//
// A Participant is single-goroutine, like Conn.
type Participant struct {
	// Addr is the aggregation server address.
	Addr string
	// ID is the device's client ID (see DialID).
	ID uint32
	// Retry is the reconnect policy; its zero value retries 3 times.
	Retry Backoff
	// Fallbacks lists alternative server addresses tried in rotation when
	// dialing the current address fails — the orphan path of a hierarchical
	// fleet: a device whose edge aggregator died redials it, then falls
	// back to the next configured parent and rejoins the federation there.
	// Rotation is sticky: once an address accepts, it stays current until
	// it fails again.
	Fallbacks []string
	// Dialer optionally replaces the raw transport dial — the seam the
	// fault-injection harness uses to hand back a faulty connection. nil
	// means net.Dial("tcp", addr), where addr walks Addr and Fallbacks.
	Dialer func(addr string) (net.Conn, error)
	// Codec selects the parameter encoding (codec.go); it must match the
	// server's, and the zero value is the dense default. Every reconnect
	// starts from fresh codec state on both sides, so rejoining under a
	// stateful codec (delta, quantized) is safe by construction.
	Codec Codec

	reconnects int
	lastRound  int
	bytesSent  int64
	bytesRecv  int64
	addrIdx    int // current position in the Addr+Fallbacks rotation
}

// Reconnects returns how many times Run re-established the connection
// after a transport failure.
func (p *Participant) Reconnects() int { return p.reconnects }

// LastRound returns the last round number this device received a broadcast
// for, across all connections.
func (p *Participant) LastRound() int { return p.lastRound }

// BytesSent returns total model-bearing bytes written across all
// connections.
func (p *Participant) BytesSent() int64 { return p.bytesSent }

// BytesReceived returns total model-bearing bytes read across all
// connections.
func (p *Participant) BytesReceived() int64 { return p.bytesRecv }

// addr returns the rotation's current server address.
func (p *Participant) addr() string {
	if p.addrIdx == 0 || p.addrIdx > len(p.Fallbacks) {
		return p.Addr
	}
	return p.Fallbacks[p.addrIdx-1]
}

// rotate advances to the next address in the Addr+Fallbacks ring after a
// dial failure.
func (p *Participant) rotate() {
	p.addrIdx = (p.addrIdx + 1) % (1 + len(p.Fallbacks))
}

// dial establishes one identified connection to the rotation's current
// address, without retry.
func (p *Participant) dial() (*Conn, error) {
	addr := p.addr()
	if p.Dialer == nil {
		return DialCodec(addr, p.ID, p.Codec)
	}
	raw, err := p.Dialer(addr)
	if err != nil {
		return nil, fmt.Errorf("fed: dial %s: %w", addr, err)
	}
	c, err := NewConnCodec(raw, p.ID, p.Codec)
	if err != nil {
		_ = raw.Close()
		return nil, err
	}
	return c, nil
}

// relayProgress threads the failure-budget reset through a RelayClient
// without demoting it: wrapping an aggregator in a plain ClientFunc would
// hide its RelayRound method from Conn.Participate and silently turn an
// interior node into a training leaf.
type relayProgress struct {
	relay RelayClient
	note  func(round int)
}

func (rp relayProgress) TrainRound(round int, global []float64) ([]float64, error) {
	rp.note(round)
	return rp.relay.TrainRound(round, global)
}

func (rp relayProgress) RelayRound(round int, global []float64) (*nn.ParamSum, int, error) {
	rp.note(round)
	return rp.relay.RelayRound(round, global)
}

// Run participates until the server delivers the final model, a local
// training error occurs, or Retry.Attempts consecutive transport failures
// exhaust the policy. Progress resets the failure budget: a successful
// re-join (the dial and join frame going through) and every received
// broadcast both prove the server is alive, so only back-to-back failures
// count against Attempts and a device that rejoins between broadcasts
// starts its next redial schedule from the base delay, not from where the
// old schedule left off.
func (p *Participant) Run(client Client) ([]float64, error) {
	failures := 0
	var lastErr error
	for {
		if failures > 0 {
			if failures >= p.Retry.attempts() {
				return nil, fmt.Errorf("fed: participant %d gave up after %d consecutive failures (last round %d): %w",
					p.ID, failures, p.lastRound, lastErr)
			}
			p.Retry.sleep(p.Retry.Delay(failures - 1))
		}

		conn, err := p.dial()
		if err != nil {
			// The current parent is unreachable: count the failure and move
			// to the next address in the rotation (a no-op without
			// fallbacks).
			failures++
			lastErr = err
			p.rotate()
			continue
		}
		// Successful re-join acknowledgment: the transport accepted the join
		// frame, so the schedule restarts from the base delay.
		failures = 0

		note := func(round int) {
			failures = 0
			p.lastRound = round
		}
		var progress Client = ClientFunc(func(round int, global []float64) ([]float64, error) {
			note(round)
			return client.TrainRound(round, global)
		})
		if relay, ok := client.(RelayClient); ok {
			progress = relayProgress{relay: relay, note: note}
		}
		final, err := conn.Participate(progress)
		p.bytesSent += conn.BytesSent()
		p.bytesRecv += conn.BytesReceived()
		_ = conn.Close()
		if err == nil {
			return final, nil
		}
		var re *RoundError
		if errors.As(err, &re) && re.Phase == PhaseTrain {
			// The device itself failed; reconnecting cannot help.
			return nil, err
		}
		failures++
		p.reconnects++
		lastErr = err
	}
}
