package fed

import (
	"bufio"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"time"

	"fedpower/internal/nn"
	"fedpower/internal/par"
)

// Server is the central aggregation server of Fig. 1 over TCP. It waits for
// a fixed number of clients, then drives R rounds of the FedAvg protocol:
// broadcast the global model, collect locally optimised models, average.
// Aggregation is unweighted — every client carries the same weight, as in
// §III-B.
//
// Unlike the paper's idealised synchronous protocol, the server degrades
// gracefully: every I/O phase is bounded by a deadline, a client that
// misses its deadline (or whose connection dies) is dropped from the round,
// and the round commits as long as at least Quorum updates arrived —
// averaging only the survivors, so a dead device's stale parameters never
// reach the global model. Dropped devices may reconnect at any time and
// rejoin at the next broadcast; the accept loop keeps running for the whole
// training session.
type Server struct {
	ln         net.Listener
	numClients int
	rounds     int

	// RoundTimeout bounds how long the server waits for any single
	// client's update within a round; zero means wait forever. Because
	// aggregation is synchronous, one hung device would otherwise stall the
	// whole federation indefinitely.
	RoundTimeout time.Duration
	// WriteTimeout bounds each broadcast write per client; zero means no
	// deadline. A client with a full TCP window (dead but not closed)
	// otherwise wedges the broadcast.
	WriteTimeout time.Duration
	// JoinTimeout bounds how long an accepted connection may take to send
	// its join frame; zero means wait forever. The join read is serialised
	// in the accept loop, so a silent port-scanner connection would
	// otherwise block later joiners.
	JoinTimeout time.Duration
	// Quorum is the minimum number of client updates a round needs to
	// commit; 0 means all clients (the paper's fully synchronous setting).
	// A round that ends with fewer survivors aborts the protocol.
	Quorum int
	// Clock supplies the current time for deadline arithmetic; nil means
	// time.Now. Tests inject a fake to pin deadline placement.
	Clock func() time.Time
	// OnDrop, when non-nil, observes every dropped client: its ID, the
	// round it was lost in, and the error that killed it. Called from the
	// Serve goroutine only, never concurrently.
	OnDrop func(id uint32, round int, err error)
	// Codec selects the parameter encoding of every connection (codec.go).
	// The zero value is the dense float32 codec — the paper's wire format.
	// Joins advertising a different codec are rejected before any model
	// bytes move, so a mixed fleet fails fast instead of desynchronising.
	Codec Codec
	// Parallelism bounds the round workers: how many per-connection
	// broadcast encodes and collect reads run concurrently, and how many
	// shards the exact accumulation folds on. 0 (the default) uses one
	// worker per pooled connection for the I/O phases — every deadline
	// window overlaps, the historical semantics — and GOMAXPROCS shards
	// for accumulation; N > 0 caps both (note that capping I/O below the
	// pool size stacks slow clients' deadline windows back to back).
	// Aggregation results are bit-identical at every width: the exact
	// accumulator is order- and grouping-invariant, and each connection's
	// codec state is only ever touched by the worker holding its index
	// (TestParallelAggregationBitIdentical pins this in the determinism
	// gate).
	Parallelism int

	mu        sync.Mutex
	bytesSent int64
	bytesRecv int64
	drops     int64
	rejoins   int64
	leaves    int64
	acceptErr error
}

// NewServer listens on addr (e.g. "127.0.0.1:0") for numClients clients and
// will run the given number of rounds. Fault-tolerance knobs (deadlines,
// quorum, drop observer) are fields set before Serve.
func NewServer(addr string, numClients, rounds int) (*Server, error) {
	if numClients <= 0 {
		return nil, fmt.Errorf("fed: client count %d must be positive", numClients)
	}
	if rounds <= 0 {
		return nil, fmt.Errorf("fed: round count %d must be positive", rounds)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("fed: listen %s: %w", addr, err)
	}
	return &Server{ln: ln, numClients: numClients, rounds: rounds}, nil
}

// Addr returns the server's listen address, useful when addr was ":0".
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the federation down: it closes the listener, and a Serve in
// progress aborts with a *RoundError at the next round boundary (a server
// that can never re-admit a dropped device has lost its rejoin guarantee,
// so running on silently would be lying about fault tolerance). Serve also
// closes the listener itself on return, so Close after Serve merely
// reports the double close.
func (s *Server) Close() error { return s.ln.Close() }

// BytesSent returns the total bytes written to clients so far.
func (s *Server) BytesSent() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytesSent
}

// BytesReceived returns the total payload-bearing bytes read from clients.
func (s *Server) BytesReceived() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytesRecv
}

// Drops returns how many client connections the server has dropped for
// deadline misses, protocol violations or transport errors.
func (s *Server) Drops() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.drops
}

// Rejoins returns how many connections joined after the initial cohort —
// dropped devices that reconnected.
func (s *Server) Rejoins() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rejoins
}

// Leaves returns the leaf-device count of the last committed round: the
// number of actual devices whose updates reached this server, directly or
// through relaying aggregators. In a flat federation it equals the surviving
// client count; in a tree it is the surviving subtree population.
func (s *Server) Leaves() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.leaves
}

// now returns the injected clock's reading.
func (s *Server) now() time.Time {
	if s.Clock != nil {
		return s.Clock()
	}
	return time.Now()
}

// quorum returns the effective per-round quorum.
func (s *Server) quorum() int {
	if s.Quorum <= 0 {
		return s.numClients
	}
	return s.Quorum
}

type serverConn struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
	id   uint32 // client ID from the join frame
	seq  int    // join sequence, tiebreak for duplicate IDs

	// Per-connection codec state and a reusable inbound message: broadcast
	// encodes through tx, collect decodes through rx into msg, so the
	// steady-state wire path allocates nothing. msg.params is valid until
	// the next collect on this connection — aggregation finishes within the
	// round, so nothing retains it longer.
	tx, rx *codecState
	msg    message
}

// acceptLoop owns the listener: it accepts connections, reads each one's
// join frame (bounded by JoinTimeout), and delivers joined clients to Serve
// through the joins channel. It exits — closing the channel — when the
// listener closes, which Serve does on return; the accept error is parked
// for Serve to read. Join reads are serialised here on purpose: a join is
// one 9-byte frame, and a single reader keeps join sequence numbers
// deterministic.
func (s *Server) acceptLoop(joins chan<- *serverConn) {
	defer close(joins)
	for seq := 0; ; seq++ {
		conn, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			s.acceptErr = err
			s.mu.Unlock()
			return
		}
		sc, err := s.readJoin(conn, seq)
		if err != nil {
			// A connection that cannot even say hello is not a client.
			_ = conn.Close()
			seq--
			continue
		}
		joins <- sc
	}
}

// readJoin reads and validates the join frame of a fresh connection.
func (s *Server) readJoin(conn net.Conn, seq int) (*serverConn, error) {
	if s.JoinTimeout > 0 {
		if err := conn.SetReadDeadline(s.now().Add(s.JoinTimeout)); err != nil {
			return nil, err
		}
	}
	sc := &serverConn{
		conn: conn,
		r:    bufio.NewReader(conn),
		w:    bufio.NewWriter(conn),
		seq:  seq,
	}
	m, err := readMessage(sc.r)
	if err != nil {
		return nil, err
	}
	if m.kind != msgJoin {
		return nil, fmt.Errorf("fed: first frame is message type %d, want join", m.kind)
	}
	if m.codec != s.Codec.id {
		// Codec negotiation: both directions of a connection must use the
		// server's codec, or the shadow states desynchronise silently.
		return nil, fmt.Errorf("fed: client codec id %d, server runs %s", m.codec, s.Codec)
	}
	if s.JoinTimeout > 0 {
		// Clear the join deadline; round deadlines are set per phase.
		if err := conn.SetReadDeadline(time.Time{}); err != nil {
			return nil, err
		}
	}
	sc.id = uint32(m.round)
	sc.tx = newCodecState(s.Codec, int64(streamDown)+2*int64(sc.id))
	sc.rx = newCodecState(s.Codec, int64(streamUp)+2*int64(sc.id))
	return sc, nil
}

// sortPool orders the client pool by (ID, join sequence), giving every
// device a stable aggregation slot: with distinct IDs the average is summed
// in the same order no matter how connects and reconnects interleaved, so
// runs replay bit-identically.
func sortPool(pool []*serverConn) {
	sort.Slice(pool, func(i, j int) bool {
		if pool[i].id != pool[j].id {
			return pool[i].id < pool[j].id
		}
		return pool[i].seq < pool[j].seq
	})
}

// Round-worker phases: the session's persistent pool runs one task bound
// at construction, and the coordinator selects the work by setting phase
// before each Pool.Run (per-phase closures would allocate every round, and
// the construction-bound literal is what the slotrace analyzer checks).
const (
	phaseBroadcast = iota // encode + write bmsg to pool[i]
	phaseCollect          // read + validate pool[i]'s round result
	phaseAccum            // fold contribution chunk i into shards[i]
)

// roundStats batches one round's counter deltas so the round loop takes
// the stats mutex once per round instead of once per broadcast, per drop,
// per rejoin and per leaf-count publish — the parallel phases never touch
// s.mu at all. Accumulated by the session's coordinating goroutine only;
// flushStats publishes it.
type roundStats struct {
	bytesSent int64
	bytesRecv int64
	drops     int64
	rejoins   int64
	leaves    int64
	leavesSet bool
}

// session is one Serve invocation's connection state: the accept loop's
// join channel, the live client pool, the persistent round workers and the
// session-owned scratch they write into. Server.Serve and fed.Aggregator
// both run their child-facing protocol through it — an aggregator is a
// Server session whose round results flow upward instead of into a mean.
//
// All scratch is cap-guarded: it grows to the high-water pool size once
// and is reused every round after, so a steady-state round performs zero
// allocations (TestServerRoundAllocFree gates this). The phase inputs (phase,
// bmsg, round, numParams, nshards) are written by the coordinating
// goroutine strictly before Pool.Run and the slot outputs read strictly
// after it; the pool's release/join edges order both.
type session struct {
	s     *Server
	joins chan *serverConn
	pool  []*serverConn

	workers *par.Pool
	phase   int
	bmsg    message // broadcast phase: the frame fanned out to the pool
	round   int     // collect phase: the round being gathered
	numPar  int     // collect phase: expected parameter count
	nshards int     // accum phase: number of contribution chunks

	errs        []error        // per-connection phase error (own slot)
	ns          []int          // per-connection bytes moved (own slot)
	updates     []contribution // per-connection collect result (own slot)
	contribs    []contribution // survivors, in pool (ID, seq) order
	shards      []*nn.ParamSum // per-chunk exact partial sums (own slot)
	chunkLeaves []int          // per-chunk leaf totals (own slot)
	stats       roundStats
}

// startSession spawns the accept loop, binds the persistent round workers'
// task, and returns the session handle. The caller must call close exactly
// once when the protocol is decided.
//
// The task literal is the session's only fan-out point, and it keeps the
// own-slot discipline slotrace enforces: every write lands in a slot
// selected by the task index (errs[i], ns[i], updates[i], chunkLeaves[i])
// or in connection state reached through the own-slot pool entry — each
// connection's codec shadows, scratch and reusable message belong to
// exactly one index per phase, which is why parallel encode draws each
// stochastic codec's rounding sequence exactly as the sequential loop
// would.
func (s *Server) startSession() *session {
	ses := s.newSession()
	go s.acceptLoop(ses.joins)
	return ses
}

// newSession builds the session state — worker pool, join channel, scratch
// — without starting the accept loop, the seam the collect fuzz harness
// uses to drive a session over hand-built connections.
func (s *Server) newSession() *session {
	ses := &session{s: s, joins: make(chan *serverConn, s.numClients)}
	ses.workers = par.NewPool(func(i int) {
		switch ses.phase {
		case phaseBroadcast:
			sc := ses.pool[i]
			if s.WriteTimeout > 0 {
				if err := sc.conn.SetWriteDeadline(s.now().Add(s.WriteTimeout)); err != nil {
					ses.ns[i], ses.errs[i] = 0, err
					return
				}
			}
			ses.ns[i], ses.errs[i] = sc.tx.writeMessage(sc.w, ses.bmsg)
		case phaseCollect:
			ses.updates[i], ses.ns[i], ses.errs[i] = s.collectOne(ses.pool[i], ses.round, ses.numPar)
		case phaseAccum:
			lo, hi := chunkBounds(i, len(ses.contribs), ses.nshards)
			ses.chunkLeaves[i] = accumulate(ses.shards[i], ses.contribs[lo:hi])
		}
	})
	return ses
}

// close releases all connection state: it closes the listener to stop the
// accept loop, retires the round workers, drains the join channel, and
// closes every pooled connection. The protocol outcome is already decided,
// so close errors carry no signal.
func (ses *session) close() {
	_ = ses.s.ln.Close()
	ses.workers.Close()
	for sc := range ses.joins {
		_ = sc.conn.Close()
	}
	for _, sc := range ses.pool {
		_ = sc.conn.Close()
	}
}

// growScratch sizes the per-connection phase slots for a pool of n.
func (ses *session) growScratch(n int) {
	if cap(ses.errs) < n {
		ses.errs = make([]error, n)
		ses.ns = make([]int, n)
		ses.updates = make([]contribution, n)
	}
	ses.errs = ses.errs[:n]
	ses.ns = ses.ns[:n]
	ses.updates = ses.updates[:n]
}

// flushStats publishes the round's batched counter deltas under one
// acquisition of the stats mutex and clears them.
func (ses *session) flushStats() {
	st := &ses.stats
	s := ses.s
	s.mu.Lock()
	s.bytesSent += st.bytesSent
	s.bytesRecv += st.bytesRecv
	s.drops += st.drops
	s.rejoins += st.rejoins
	if st.leavesSet {
		s.leaves = st.leaves
	}
	s.mu.Unlock()
	*st = roundStats{}
}

// waitCohort blocks until the initial cohort is fully joined — the paper's
// setting, all devices present at the start.
func (ses *session) waitCohort() error {
	for len(ses.pool) < ses.s.numClients {
		sc, ok := <-ses.joins
		if !ok {
			return fmt.Errorf("fed: accept: %w", ses.s.takeAcceptErr())
		}
		ses.pool = append(ses.pool, sc)
	}
	sortPool(ses.pool)
	return nil
}

// admit moves reconnected clients into the pool; alive is false once the
// listener is down and the rejoin guarantee is gone. Rejoins are batched
// into the round's stats delta, not published per connection.
func (ses *session) admit() (alive bool) {
	for {
		select {
		case sc, ok := <-ses.joins:
			if !ok {
				return false
			}
			ses.pool = append(ses.pool, sc)
			ses.stats.rejoins++
			sortPool(ses.pool)
		default:
			return true
		}
	}
}

// drop removes a client from the protocol: close, count, observe. Called
// from the coordinating goroutine only, after the phase workers joined.
func (ses *session) drop(sc *serverConn, round int, err error) {
	_ = sc.conn.Close()
	ses.stats.drops++
	if ses.s.OnDrop != nil {
		ses.s.OnDrop(sc.id, round, err)
	}
}

// broadcast writes m to every pooled client on the persistent round
// workers (a slow client must not serialise the round start), each write
// bounded by WriteTimeout, and keeps only the clients the write reached.
// Unreachable clients are dropped, not fatal: whether the round can
// proceed is the caller's quorum decision.
func (ses *session) broadcast(m message, round int) {
	s := ses.s
	n := len(ses.pool)
	ses.growScratch(n)
	ses.bmsg = m
	ses.phase = phaseBroadcast
	ses.workers.Run(s.ioWidth(n), n)
	ses.bmsg = message{} // do not retain the caller's params past the phase
	for _, nb := range ses.ns {
		ses.stats.bytesSent += int64(nb)
	}
	alive := ses.pool[:0]
	for i, sc := range ses.pool {
		if ses.errs[i] != nil {
			ses.drop(sc, round, &RoundError{Round: round, Phase: PhaseBroadcast, Client: int(sc.id), Err: ses.errs[i]})
			continue
		}
		alive = append(alive, sc)
	}
	ses.pool = alive
}

// collect reads one round result from every pooled client on the round
// workers, each read bounded by RoundTimeout. It keeps the surviving pool,
// stores the survivors' contributions in pool (ID, seq) order in the
// session's reusable contribs slice, and returns them with the first
// failure for quorum-abort diagnostics. Failed clients — deadline misses,
// dead sockets, wrong round, wrong shape, malformed relay blocks — are
// dropped; their connections are closed so a straggler's late frame can
// never desynchronise a later round (the device rejoins with a fresh
// connection instead). Byte accounting sums the bytes each complete,
// accepted result actually put on the wire — under the dense codec exactly
// TransferSize per leaf survivor, under the compressed codecs their true
// (smaller) frame sizes, and for relays their exact-accumulator frames.
func (ses *session) collect(round, numParams int) ([]contribution, error) {
	n := len(ses.pool)
	ses.growScratch(n)
	ses.round, ses.numPar = round, numParams
	ses.phase = phaseCollect
	ses.workers.Run(ses.s.ioWidth(n), n)

	alive := ses.pool[:0]
	contribs := ses.contribs[:0]
	var firstErr error
	for i, sc := range ses.pool {
		if ses.errs[i] != nil {
			wrapped := &RoundError{Round: round, Phase: PhaseCollect, Client: int(sc.id), Err: ses.errs[i]}
			if firstErr == nil {
				firstErr = wrapped
			}
			ses.drop(sc, round, wrapped)
			continue
		}
		alive = append(alive, sc)
		contribs = append(contribs, ses.updates[i])
		ses.stats.bytesRecv += int64(ses.ns[i])
	}
	ses.pool = alive
	ses.contribs = contribs
	return contribs, firstErr
}

// accumulate folds the round's contributions into sum by sharding them
// across the round workers: each worker folds a contiguous chunk into its
// own shard exactly, and the shards merge in chunk order. Because the
// exact accumulator is associative in the strongest sense — every partial
// sum is the true fixed-point sum of its inputs, with no rounding anywhere
// — the sharded result is bit-identical to the sequential fold at every
// width, an arithmetic identity rather than a tolerance. contribs must be
// ses.contribs (the collect output), which the accum phase re-slices by
// chunk.
func (ses *session) accumulate(sum *nn.ParamSum, contribs []contribution) int {
	k := ses.s.aggWidth(len(contribs))
	if k <= 1 {
		return accumulate(sum, contribs)
	}
	if cap(ses.shards) < k {
		ses.shards = make([]*nn.ParamSum, k)
		ses.chunkLeaves = make([]int, k)
	}
	ses.shards = ses.shards[:k]
	ses.chunkLeaves = ses.chunkLeaves[:k]
	for j, sh := range ses.shards {
		if sh == nil || sh.NumParams() != sum.NumParams() {
			ses.shards[j] = nn.NewParamSum(sum.NumParams())
		}
	}
	ses.nshards = k
	ses.phase = phaseAccum
	ses.workers.Run(k, k)
	total := 0
	sum.Reset()
	for j := 0; j < k; j++ {
		sum.AddSum(ses.shards[j])
		total += ses.chunkLeaves[j]
	}
	return total
}

// chunkBounds splits n items into k contiguous chunks and returns chunk
// i's half-open range. Chunks differ in size by at most one and preserve
// order, so the shard merge replays the sequential fold's grouping.
func chunkBounds(i, n, k int) (lo, hi int) {
	return i * n / k, (i + 1) * n / k
}

// ioWidth is the worker width of the I/O phases over n connections:
// unbounded by default so every deadline window overlaps.
func (s *Server) ioWidth(n int) int {
	w := s.Parallelism
	if w <= 0 || w > n {
		w = n
	}
	return w
}

// aggWidth is the shard count of the accumulation phase over n
// contributions: CPU-bound work, so it defaults to GOMAXPROCS.
func (s *Server) aggWidth(n int) int {
	w := s.Parallelism
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	return w
}

// contribution is one pooled connection's round result: either a leaf
// device's parameter vector (params set, leaves == 1) or a relaying
// aggregator's exact subtree sums (sums set to the frame's scanned
// accumulator block, leaves = subtree population). Both storages are backed
// by the connection's reusable inbound message and codec scratch and stay
// valid until its next read — aggregation completes within the round.
type contribution struct {
	params []float64
	sums   []byte
	leaves int
}

// accumulate folds contributions into sum — resetting it first — and
// returns the total leaf count. Leaf parameters are added exactly and
// subtree sums merged exactly, so the result is the exact multiset sum over
// every leaf device below this node, independent of topology. It is both
// the sequential reference path and the per-shard kernel of the parallel
// fold (session.accumulate), and the round's aggregation hot path: the
// static proof below guarantees it never allocates.
//
//fedlint:allocfree
func accumulate(sum *nn.ParamSum, contribs []contribution) int {
	sum.Reset()
	total := 0
	for _, c := range contribs {
		if c.sums != nil {
			sum.AddWire(c.sums)
		} else {
			sum.Add(c.params)
		}
		total += c.leaves
	}
	return total
}

// Serve accepts the initial cohort of clients, runs all rounds starting
// from the initial global model, and returns the final global model. The
// hook, if non-nil, runs after every aggregation.
//
// Round lifecycle: (1) admit any reconnected devices into the pool,
// aborting if the listener has died (see Close);
// (2) broadcast θ_r, dropping clients whose write fails or times out;
// (3) collect one update per client under RoundTimeout, dropping clients
// that miss the deadline, answer for the wrong round, or die; (4) if at
// least Quorum updates survived, average exactly those survivors into the
// global model, else abort. Serve returns early only when a round cannot
// reach quorum (or setup fails); individual client failures are absorbed.
//
// A client may be a leaf device (msgUpdate) or a relaying aggregator
// (msgRelay) — the mean is taken over leaf devices, with each relayed
// subtree entering the sum exactly, so any aggregation tree reproduces the
// flat federation's model bit-for-bit (DESIGN.md, "Hierarchical
// aggregation"). Quorum counts direct children: a subtree that misses its
// deadline drops from this node's quorum, not from the global round.
func (s *Server) Serve(initial []float64, hook RoundHook) ([]float64, error) {
	ses := s.startSession()
	defer ses.close()

	quorum := s.quorum()
	if quorum > s.numClients {
		return nil, fmt.Errorf("fed: quorum %d exceeds client count %d", quorum, s.numClients)
	}
	if err := ses.waitCohort(); err != nil {
		return nil, err
	}

	global := append([]float64(nil), initial...)
	sum := nn.NewParamSum(len(global))

	for round := 1; round <= s.rounds; round++ {
		contribs, rerr := s.round(ses, round, global)
		if rerr != nil {
			ses.flushStats()
			return nil, rerr
		}
		total := ses.accumulate(sum, contribs)
		ses.stats.leaves, ses.stats.leavesSet = int64(total), true
		ses.flushStats()
		sum.Mean(global, total)
		if hook != nil {
			hook(round, global)
		}
	}

	// Final model delivery is best-effort per client: a device that died
	// after the last aggregation cannot invalidate the result.
	ses.broadcast(message{kind: msgDone, round: s.rounds, params: global}, s.rounds)
	ses.flushStats()
	return global, nil
}

// round drives one admit → broadcast → collect cycle over the session and
// returns the surviving contributions, or a *RoundError when the round
// cannot reach quorum (shared verbatim between the root Serve and interior
// aggregators, whose rounds differ only in what happens to the result).
func (s *Server) round(ses *session, round int, global []float64) ([]contribution, error) {
	quorum := s.quorum()
	if !ses.admit() {
		return nil, &RoundError{Round: round, Phase: PhaseBroadcast, Client: -1,
			Err: fmt.Errorf("listener down, shutting down: %w", s.takeAcceptErr())}
	}
	if len(ses.pool) < quorum {
		return nil, &RoundError{Round: round, Phase: PhaseBroadcast, Client: -1,
			Err: fmt.Errorf("%d live clients below quorum %d", len(ses.pool), quorum)}
	}

	ses.broadcast(message{kind: msgModel, round: round, params: global}, round)
	if len(ses.pool) < quorum {
		return nil, &RoundError{Round: round, Phase: PhaseBroadcast, Client: -1,
			Err: fmt.Errorf("%d clients reachable after broadcast, quorum %d", len(ses.pool), quorum)}
	}

	contribs, firstErr := ses.collect(round, len(global))
	if len(contribs) < quorum {
		return nil, &RoundError{Round: round, Phase: PhaseCollect, Client: -1,
			Err: fmt.Errorf("%d of %d updates arrived, quorum %d: %w",
				len(contribs), s.numClients, quorum, firstErr)}
	}
	return contribs, nil
}

// takeAcceptErr returns the parked accept-loop error.
func (s *Server) takeAcceptErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.acceptErr == nil {
		return fmt.Errorf("listener closed")
	}
	return s.acceptErr
}

// collectOne reads and validates a single client's round result — a leaf
// update or a relayed subtree sum — returning it as a contribution (backed
// by the connection's reusable message, valid until its next read) plus the
// actual bytes the frame occupied on the wire.
func (s *Server) collectOne(sc *serverConn, round, numParams int) (contribution, int, error) {
	if s.RoundTimeout > 0 {
		if err := sc.conn.SetReadDeadline(s.now().Add(s.RoundTimeout)); err != nil {
			return contribution{}, 0, fmt.Errorf("set deadline: %w", err)
		}
	}
	n, err := sc.rx.readMessage(sc.r, &sc.msg)
	if err != nil {
		return contribution{}, 0, err
	}
	m := &sc.msg
	if m.kind != msgUpdate && m.kind != msgRelay {
		return contribution{}, 0, fmt.Errorf("fed: message type %d, want update or relay", m.kind)
	}
	if m.round != round {
		return contribution{}, 0, fmt.Errorf("fed: answered round %d during round %d", m.round, round)
	}
	if m.kind == msgRelay {
		if m.count != numParams {
			return contribution{}, 0, fmt.Errorf("fed: relayed %d sums, want %d", m.count, numParams)
		}
		return contribution{sums: m.block, leaves: m.leaves}, n, nil
	}
	if len(m.params) != numParams {
		return contribution{}, 0, fmt.Errorf("fed: sent %d params, want %d", len(m.params), numParams)
	}
	return contribution{params: m.params, leaves: 1}, n, nil
}
