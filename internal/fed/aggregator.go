package fed

import (
	"fmt"

	"fedpower/internal/nn"
)

// Aggregator is an interior node of a hierarchical federation: a Server to
// the clients below it (leaf devices or further aggregators) and a resilient
// client to its parent. Each round it receives the parent's broadcast,
// re-broadcasts it to its children under their negotiated codec streams,
// collects their round results, folds them into exact per-parameter sums
// (nn.ParamSum), and relays the sums plus its subtree's leaf count upward in a
// msgRelay frame. Nothing is rounded below the root, so the root's model is
// bit-identical to a flat federation over the same leaves.
//
// Fault tolerance composes per hop: the child-facing side applies this
// node's deadlines and quorum (a child subtree that misses its deadline
// drops from this node's quorum, not from the global round), while the
// parent-facing side reconnects under the Retry policy and can fall back to
// alternate parents — so an orphaned subtree rejoins the federation through
// Fallbacks when its parent dies. A round whose children miss quorum is
// reported upward as a dropped relay (the parent aggregates without this
// subtree); the aggregator stays alive and retries at the next broadcast.
type Aggregator struct {
	// Children is the child-facing server. Configure its deadlines, quorum,
	// codec and drop observer before Run; interior deadlines should be
	// shorter than the parent's RoundTimeout so a slow subtree resolves
	// locally before the parent gives up on the whole relay.
	Children *Server
	// Parent is the parent aggregator (or root server) address.
	Parent string
	// Fallbacks lists alternate parents tried in rotation when Parent stops
	// answering (see Participant.Fallbacks).
	Fallbacks []string
	// ID identifies this aggregator on the upward link (see DialID).
	ID uint32
	// Retry is the upward reconnect policy; its zero value retries 3 times.
	Retry Backoff
	// Uplink is the parameter codec of the parent link; it must match the
	// parent's codec. Relay payloads bypass it by design (wire.go) — it
	// compresses the downward model broadcasts.
	Uplink Codec

	part *Participant
}

// NewAggregator listens on addr for the given number of children and
// returns an aggregator ready to be wired to its parent via the exported
// fields. The child count is this hop's initial cohort; rounds are driven
// by the parent, not configured here.
func NewAggregator(addr string, children int) (*Aggregator, error) {
	// The round count is owned by the parent's broadcasts; the child-facing
	// Server never runs its own Serve loop, so the constructor's round
	// parameter is inert here.
	srv, err := NewServer(addr, children, 1)
	if err != nil {
		return nil, err
	}
	return &Aggregator{Children: srv}, nil
}

// Addr returns the child-facing listen address.
func (a *Aggregator) Addr() string { return a.Children.Addr() }

// Close tears down the child-facing listener; a Run in progress aborts.
func (a *Aggregator) Close() error { return a.Children.Close() }

// Reconnects reports how many times the upward link was re-established.
func (a *Aggregator) Reconnects() int {
	if a.part == nil {
		return 0
	}
	return a.part.Reconnects()
}

// UplinkBytesSent reports the model-bearing bytes this aggregator sent to
// its parent — the relay frames, the per-hop upward cost. The join
// handshake is not in it: NewConnCodec keeps protocol framing out of Conn's
// byte counters, which are all a Participant sums, as the parent keeps it
// out of its BytesReceived.
func (a *Aggregator) UplinkBytesSent() int64 {
	if a.part == nil {
		return 0
	}
	return a.part.BytesSent()
}

// UplinkBytesReceived reports the model-bearing bytes received from the
// parent (broadcasts and the final model).
func (a *Aggregator) UplinkBytesReceived() int64 {
	if a.part == nil {
		return 0
	}
	return a.part.BytesReceived()
}

// aggregatorRelay is the RelayClient the aggregator presents to its upward
// Participant: every broadcast resolves to one child round.
type aggregatorRelay struct {
	agg *Aggregator
	ses *session
	sum *nn.ParamSum
}

// TrainRound exists to satisfy Client; Conn.Participate always dispatches a
// RelayClient through RelayRound instead.
func (ar *aggregatorRelay) TrainRound(round int, global []float64) ([]float64, error) {
	return nil, fmt.Errorf("fed: aggregator %d cannot train locally", ar.agg.ID)
}

// RelayRound drives one child round for the parent's broadcast and returns
// the subtree's exact sum and leaf population. Child-side quorum failures
// return the *RoundError as-is — a retryable condition the upward
// Participant resolves by rejoining for the next round — while a dead
// child-facing listener is a plain error, which Participate classifies as
// fatal (PhaseTrain): an aggregator that can never re-admit children has
// lost its subtree for good.
func (ar *aggregatorRelay) RelayRound(round int, global []float64) (*nn.ParamSum, int, error) {
	s := ar.agg.Children
	if !ar.ses.admit() {
		return nil, 0, fmt.Errorf("aggregator %d listener down: %w", ar.agg.ID, s.takeAcceptErr())
	}
	contribs, err := s.round(ar.ses, round, global)
	if err != nil {
		ar.ses.flushStats()
		return nil, 0, err
	}
	if ar.sum == nil || ar.sum.NumParams() != len(global) {
		ar.sum = nn.NewParamSum(len(global))
	}
	total := ar.ses.accumulate(ar.sum, contribs)
	ar.ses.stats.leaves, ar.ses.stats.leavesSet = int64(total), true
	ar.ses.flushStats()
	return ar.sum, total, nil
}

// Run connects the aggregator between its children and its parent and
// relays rounds until the parent delivers the final model, which is fanned
// out to the children as their done frame before being returned. Run owns
// all child connection state and releases it on return, whatever the
// outcome.
func (a *Aggregator) Run() ([]float64, error) {
	ses := a.Children.startSession()
	defer ses.close()
	if err := ses.waitCohort(); err != nil {
		return nil, err
	}

	a.part = &Participant{
		Addr:      a.Parent,
		Fallbacks: a.Fallbacks,
		ID:        a.ID,
		Retry:     a.Retry,
		Codec:     a.Uplink,
	}
	final, err := a.part.Run(&aggregatorRelay{agg: a, ses: ses})
	if err != nil {
		return nil, err
	}
	// Fan the final model out to the children — best-effort, like the root's
	// own done broadcast.
	ses.broadcast(message{kind: msgDone, round: a.part.LastRound(), params: final}, a.part.LastRound())
	ses.flushStats()
	return final, nil
}
