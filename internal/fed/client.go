package fed

import (
	"bufio"
	"errors"
	"fmt"
	"net"

	"fedpower/internal/nn"
)

// RelayClient is the client role of an interior aggregator: instead of
// training locally it resolves each broadcast round against its own child
// subtree and answers with the subtree's exact per-parameter sums and leaf
// population (a relay frame rather than an update frame). The returned sum
// is only encoded, never retained, so the relay may reuse it across
// rounds; encoding may fold its leads into its accumulators, which leaves
// its value unchanged. A RelayRound error that is already a *RoundError
// keeps its phase — a subtree that missed its own quorum is a collect
// failure, which Participant.Run treats as retryable, not as a fatal
// local-training error.
type RelayClient interface {
	Client
	RelayRound(round int, global []float64) (sum *nn.ParamSum, leaves int, err error)
}

// Conn is a client-side connection to the aggregation server. A device
// connects once and then participates in every round until the server sends
// the final model, the connection dies, or the server drops the device for
// missing a round deadline (in which case Participant.Run reconnects and
// the device rejoins at the next broadcast).
//
// Dial, Participate and Close must be called from one goroutine.
type Conn struct {
	conn      net.Conn
	r         *bufio.Reader
	w         *bufio.Writer
	id        uint32
	round     int // last round received from the server; 0 before the first
	bytesSent int64
	bytesRecv int64

	// Per-connection codec state and a reusable inbound message (see
	// codec.go): broadcasts decode through rx into msg, updates encode
	// through tx, so the steady-state wire path allocates nothing.
	tx, rx *codecState
	msg    message
}

// Dial connects to the aggregation server at addr with client ID 0
// (anonymous: the server assigns aggregation order by arrival).
func Dial(addr string) (*Conn, error) { return DialID(addr, 0) }

// DialID connects to the aggregation server at addr and identifies as the
// given client ID. IDs give devices stable aggregation slots: the server
// orders each round's surviving updates by (ID, arrival), so a fleet using
// distinct IDs aggregates in a reproducible order no matter how connects
// and reconnects interleave.
func DialID(addr string, id uint32) (*Conn, error) {
	return DialCodec(addr, id, Codec{})
}

// DialCodec is DialID with an explicit parameter codec, which must match
// the server's — the server rejects mismatched joins by closing the
// connection.
func DialCodec(addr string, id uint32, codec Codec) (*Conn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("fed: dial %s: %w", addr, err)
	}
	c, err := NewConnCodec(conn, id, codec)
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	return c, nil
}

// NewConnCodec wraps an established transport connection — the seam
// Participant.Dialer feeds, which is how the fault-injection harness puts
// its wrapped sockets under the protocol — and sends the join frame
// identifying this device to the server. The codec's wire ID travels in
// the join frame; dense (and zero-Codec) joins are byte-identical to the
// pre-codec protocol.
func NewConnCodec(conn net.Conn, id uint32, codec Codec) (*Conn, error) {
	c := &Conn{
		conn: conn,
		r:    bufio.NewReader(conn),
		w:    bufio.NewWriter(conn),
		id:   id,
		tx:   newCodecState(codec, int64(streamUp)+2*int64(id)),
		rx:   newCodecState(codec, int64(streamDown)+2*int64(id)),
	}
	// The join handshake is protocol framing, not a model transfer, so it
	// stays out of the byte counters.
	if _, err := c.tx.writeMessage(c.w, message{kind: msgJoin, round: int(id), codec: codec.id}); err != nil {
		return nil, roundError(0, PhaseJoin, err)
	}
	return c, nil
}

// Close tears down the connection.
func (c *Conn) Close() error { return c.conn.Close() }

// ID returns the client ID sent in the join frame.
func (c *Conn) ID() uint32 { return c.id }

// Round returns the last round number received from the server, 0 before
// the first broadcast arrives.
func (c *Conn) Round() int { return c.round }

// BytesSent returns the total model-bearing bytes this client has written
// to the server.
func (c *Conn) BytesSent() int64 { return c.bytesSent }

// BytesReceived returns the total model-bearing bytes this client has read
// from the server.
func (c *Conn) BytesReceived() int64 { return c.bytesRecv }

// Participate runs the client side of the protocol to completion: for every
// round it receives the global model, invokes the local trainer, and sends
// the result back. It returns the final global model from the server's done
// message. The global parameter slice passed to the trainer is reused
// across rounds (like a RoundHook's argument) — the trainer must copy
// anything it retains past the call; its own return value is only encoded,
// never retained.
//
// Every failure is returned as a *RoundError carrying the round number and
// protocol phase, so callers can tell a server teardown mid-round
// (PhaseReceive, round R) from a local training failure (PhaseTrain) or a
// lost update (PhaseSend) — the distinction Participant.Run uses to decide
// whether reconnecting is worthwhile.
func (c *Conn) Participate(client Client) ([]float64, error) {
	for {
		n, err := c.rx.readMessage(c.r, &c.msg)
		if err != nil {
			return nil, roundError(c.round, PhaseReceive, err)
		}
		c.bytesRecv += int64(n)
		m := &c.msg
		switch m.kind {
		case msgDone:
			// The reusable message backs m.params; hand the caller its own
			// copy.
			return append([]float64(nil), m.params...), nil
		case msgModel:
			c.round = m.round
			var reply message
			if relay, ok := client.(RelayClient); ok {
				sum, leaves, err := relay.RelayRound(m.round, m.params)
				if err != nil {
					var re *RoundError
					if errors.As(err, &re) {
						// The subtree's own round failed (e.g. below quorum):
						// keep the phase so the caller retries next round.
						return nil, err
					}
					return nil, roundError(m.round, PhaseTrain, fmt.Errorf("relay round: %w", err))
				}
				reply = message{kind: msgRelay, round: m.round, sum: sum, leaves: leaves}
			} else {
				updated, err := client.TrainRound(m.round, m.params)
				if err != nil {
					return nil, roundError(m.round, PhaseTrain, fmt.Errorf("local training: %w", err))
				}
				reply = message{kind: msgUpdate, round: m.round, params: updated}
			}
			sent, err := c.tx.writeMessage(c.w, reply)
			c.bytesSent += int64(sent)
			if err != nil {
				return nil, roundError(m.round, PhaseSend, err)
			}
		default:
			return nil, roundError(c.round, PhaseReceive,
				fmt.Errorf("unexpected message type %d from server", m.kind))
		}
	}
}
