package fed

import (
	"bufio"
	"bytes"
	"math"
	"os"
	"os/exec"
	"regexp"
	"testing"
	"time"
)

// paperParams is the paper's model size; §IV-C reports 2.8 kB per dense
// transfer at this count.
const paperParams = 687

func TestParseCodec(t *testing.T) {
	for _, name := range []string{"dense", "delta", "quant8", "quant16"} {
		c, err := ParseCodec(name)
		if err != nil {
			t.Fatalf("ParseCodec(%q): %v", name, err)
		}
		if c.String() != name {
			t.Fatalf("ParseCodec(%q).String() = %q", name, c)
		}
		if !c.active() {
			t.Fatalf("ParseCodec(%q) is not active", name)
		}
	}
	if c, err := ParseCodec(""); err != nil || c.String() != "dense" {
		t.Fatalf("ParseCodec(\"\") = %v, %v, want dense", c, err)
	}
	if _, err := ParseCodec("gzip"); err == nil {
		t.Fatal("ParseCodec accepted an unknown codec name")
	}
	if _, err := QuantCodec(12, 0); err == nil {
		t.Fatal("QuantCodec accepted a 12-bit width")
	}
	if (Codec{}).active() {
		t.Fatal("the zero Codec must not activate in-process wire emulation")
	}
}

// TestCodecSizes pins each codec's on-wire byte count at the paper's model
// size — 9 B header, 4 B scale for the quantized codecs, then the
// model-bearing bytes: dense keeps the 2757 B frame of §IV-C, delta matches
// it, and the quantized codecs carry 4× / 2× fewer model-bearing bytes —
// the communication saving the codecs exist for.
func TestCodecSizes(t *testing.T) {
	cases := []struct {
		name  string
		codec Codec
		wire  int
	}{
		{"dense", DenseCodec(), 9 + 4*paperParams},
		{"delta", DeltaCodec(), 9 + 4*paperParams},
		{"quant8", mustQuant(t, 8), 9 + 4 + paperParams},
		{"quant16", mustQuant(t, 16), 9 + 4 + 2*paperParams},
	}
	for _, c := range cases {
		if got := c.codec.TransferSize(paperParams); got != c.wire {
			t.Errorf("%s: TransferSize(%d) = %d, want %d", c.name, paperParams, got, c.wire)
		}
	}
	if DenseCodec().TransferSize(paperParams) != TransferSize(paperParams) {
		t.Error("dense Codec.TransferSize disagrees with the package TransferSize")
	}
}

func mustQuant(tb testing.TB, bits int) Codec {
	tb.Helper()
	c, err := QuantCodec(bits, 7)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// TestDenseJoinByteIdentical pins codec negotiation's compatibility
// guarantee: a dense join frame is byte-for-byte the pre-codec join frame,
// so a dense fleet is indistinguishable from one that predates codecs.
func TestDenseJoinByteIdentical(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	cs := newCodecState(DenseCodec(), streamUp)
	if _, err := cs.writeMessage(w, message{kind: msgJoin, round: 42, codec: DenseCodec().id}); err != nil {
		t.Fatal(err)
	}
	want := []byte{4, 42, 0, 0, 0, 0, 0, 0, 0}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("dense join frame = %v, want %v", buf.Bytes(), want)
	}
}

// TestDeltaStreamBitExact runs a multi-round delta conversation with
// drifting values — the shape of a converging training run — and demands
// bit-exact reconstruction of every message.
func TestDeltaStreamBitExact(t *testing.T) {
	enc, dec := codecPair(DeltaCodec())
	params := make([]float64, paperParams)
	rng := newSplitmixForTest(99)
	for i := range params {
		params[i] = rng.norm()
	}
	var out []float64
	for round := 0; round < 12; round++ {
		payload := enc.encodePayload(params)
		if len(payload) != DeltaCodec().payloadSize(len(params)) {
			t.Fatalf("round %d: payload %d bytes, want %d", round, len(payload), DeltaCodec().payloadSize(len(params)))
		}
		var err error
		out, err = dec.decodePayload(out, len(params), payload)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for i := range params {
			want := float64(float32(params[i]))
			if math.Float64bits(out[i]) != math.Float64bits(want) {
				t.Fatalf("round %d param %d: got %v, want %v", round, i, out[i], want)
			}
		}
		// Drift like a training step would.
		for i := range params {
			params[i] += rng.norm() * 0.01
		}
	}
}

// TestQuantErrorFeedbackConverges holds the model still: with error
// feedback, repeated quantized exchanges of the same vector must drive the
// decoder's reconstruction onto the vector's float32 value — quantization
// noise is carried, not lost.
func TestQuantErrorFeedbackConverges(t *testing.T) {
	for _, bits := range []int{8, 16} {
		enc, dec := codecPair(mustQuant(t, bits))
		params := make([]float64, 64)
		rng := newSplitmixForTest(int64(bits))
		for i := range params {
			params[i] = rng.norm()
		}
		var out []float64
		var err error
		for round := 0; round < 40; round++ {
			payload := enc.encodePayload(params)
			out, err = dec.decodePayload(out, len(params), payload)
			if err != nil {
				t.Fatalf("bits=%d round %d: %v", bits, round, err)
			}
		}
		for i := range params {
			want := float64(float32(params[i]))
			if diff := math.Abs(out[i] - want); diff > 1e-3 {
				t.Fatalf("bits=%d param %d: reconstruction %v never converged to %v (diff %v)",
					bits, i, out[i], want, diff)
			}
		}
	}
}

// TestQuantDeterministicReplay pins that a quantized encoder is a pure
// function of (codec seed, stream, message sequence): two states built the
// same way emit identical payloads, the property the determinism replay
// gate relies on.
func TestQuantDeterministicReplay(t *testing.T) {
	mk := func() []byte {
		enc := newCodecState(mustQuant(t, 8), 5)
		params := make([]float64, 97)
		rng := newSplitmixForTest(3)
		for i := range params {
			params[i] = rng.norm()
		}
		var all []byte
		for round := 0; round < 3; round++ {
			all = append(all, enc.encodePayload(params)...)
			for i := range params {
				params[i] += 0.01
			}
		}
		return all
	}
	if !bytes.Equal(mk(), mk()) {
		t.Fatal("quantized encoding is not replay-deterministic")
	}
}

// TestCodecJoinNegotiation covers the join handshake: a client advertising
// the server's codec is admitted; one advertising another codec is
// rejected at join time and its Participant gives up without poisoning the
// federation.
func TestCodecJoinNegotiation(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	srv.Codec = DeltaCodec()
	srv.JoinTimeout = 5 * time.Second
	srv.RoundTimeout = 5 * time.Second

	initial := []float64{1, 2, 3}
	serveDone := make(chan struct{})
	var final []float64
	var serveErr error
	go func() {
		defer close(serveDone)
		final, serveErr = srv.Serve(initial, nil)
	}()

	// A mismatched join must be rejected: the server closes the connection
	// without admitting it, so the client's first read fails.
	mismatched, err := DialCodec(srv.Addr(), 7, DenseCodec())
	if err == nil {
		if _, perr := mismatched.Participate(ClientFunc(func(_ int, g []float64) ([]float64, error) {
			return g, nil
		})); perr == nil {
			t.Error("dense client completed a federation against a delta server")
		}
		_ = mismatched.Close()
	}

	part := &Participant{Addr: srv.Addr(), ID: 1, Codec: DeltaCodec(),
		Retry: Backoff{Attempts: 3, Base: time.Millisecond}}
	if _, err := part.Run(ClientFunc(func(_ int, g []float64) ([]float64, error) {
		out := append([]float64(nil), g...)
		for i := range out {
			out[i] += 0.5
		}
		return out, nil
	})); err != nil {
		t.Fatalf("participant: %v", err)
	}
	<-serveDone
	if serveErr != nil {
		t.Fatalf("Serve: %v", serveErr)
	}
	want := float64(float32(float64(float32(1+0.5)) + 0.5))
	if math.Float64bits(final[0]) != math.Float64bits(want) {
		t.Fatalf("delta federation final[0] = %v, want %v", final[0], want)
	}
}

// TestCodecTCPMatchesEmulation runs the same tiny federation over real TCP
// and through the in-process wire emulation (RunParallelCodec), per codec,
// and requires bit-identical finals — the bridge that lets the experiment
// harness validate TCP semantics without sockets.
func TestCodecTCPMatchesEmulation(t *testing.T) {
	codecs := []Codec{DenseCodec(), DeltaCodec(), mustQuant(t, 8), mustQuant(t, 16)}
	for _, codec := range codecs {
		initial := []float64{0.25, -1.5, 3.75, 0.125}
		trainer := func(round int, g []float64) ([]float64, error) {
			out := append([]float64(nil), g...)
			for i := range out {
				out[i] = out[i]*0.75 + float64(round)*0.03125
			}
			return out, nil
		}

		// TCP run, single client with the matching per-direction streams.
		srv, err := NewServer("127.0.0.1:0", 1, 3)
		if err != nil {
			t.Fatal(err)
		}
		srv.Codec = codec
		srv.RoundTimeout = 5 * time.Second
		done := make(chan error, 1)
		go func() {
			conn, err := DialCodec(srv.Addr(), 0, codec)
			if err != nil {
				done <- err
				return
			}
			defer func() { _ = conn.Close() }()
			_, err = conn.Participate(ClientFunc(trainer))
			done <- err
		}()
		tcpFinal, err := srv.Serve(initial, nil)
		if err != nil {
			t.Fatalf("%s: Serve: %v", codec, err)
		}
		if err := <-done; err != nil {
			t.Fatalf("%s: participate: %v", codec, err)
		}

		// In-process emulation of the same federation.
		emuFinal := append([]float64(nil), initial...)
		if err := RunParallelCodec(emuFinal, []Client{ClientFunc(trainer)}, 3, 1, codec, nil); err != nil {
			t.Fatalf("%s: RunParallelCodec: %v", codec, err)
		}
		for i := range tcpFinal {
			if math.Float64bits(tcpFinal[i]) != math.Float64bits(emuFinal[i]) {
				t.Fatalf("%s: param %d: TCP %v, emulation %v", codec, i, tcpFinal[i], emuFinal[i])
			}
		}
	}
}

// TestCodecByteAccountingActual verifies the counters report what actually
// crossed the wire: a quant8 federation's per-message byte cost must match
// Codec.TransferSize, not the dense TransferSize the counters used to
// assume.
func TestCodecByteAccountingActual(t *testing.T) {
	codec := mustQuant(t, 8)
	const rounds, nparams = 4, 33
	srv, err := NewServer("127.0.0.1:0", 1, rounds)
	if err != nil {
		t.Fatal(err)
	}
	srv.Codec = codec
	srv.RoundTimeout = 5 * time.Second

	var clientConn *Conn
	done := make(chan error, 1)
	go func() {
		conn, err := DialCodec(srv.Addr(), 1, codec)
		if err != nil {
			done <- err
			return
		}
		clientConn = conn
		defer func() { _ = conn.Close() }()
		_, err = conn.Participate(ClientFunc(func(_ int, g []float64) ([]float64, error) {
			return g, nil
		}))
		done <- err
	}()

	initial := make([]float64, nparams)
	for i := range initial {
		initial[i] = float64(i) * 0.01
	}
	if _, err := srv.Serve(initial, nil); err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("participate: %v", err)
	}

	per := int64(codec.TransferSize(nparams))
	if got, want := srv.BytesSent(), int64(rounds+1)*per; got != want {
		t.Errorf("server sent %d B, want %d (%d messages × %d B)", got, want, rounds+1, per)
	}
	if got, want := srv.BytesReceived(), int64(rounds)*per; got != want {
		t.Errorf("server received %d B, want %d", got, want)
	}
	if got, want := clientConn.BytesSent(), int64(rounds)*per; got != want {
		t.Errorf("client sent %d B, want %d", got, want)
	}
	if got, want := clientConn.BytesReceived(), int64(rounds+1)*per; got != want {
		t.Errorf("client received %d B, want %d", got, want)
	}
	if dense := int64(TransferSize(nparams)); per*4 >= dense*2 {
		t.Errorf("quant8 frame %d B is not meaningfully smaller than dense %d B", per, dense)
	}
}

// TestCodecStateReuseAllocFree pins the steady-state allocation contract of
// the wire path, per codec and per direction at the paper's model size:
// after the first message, encode and decode reuse codec-owned buffers.
func TestCodecStateReuseAllocFree(t *testing.T) {
	for _, codec := range benchCodecs(t) {
		for _, dir := range []struct {
			name string
			op   func()
		}{{"encode", wireEncodeOp(t, codec)}, {"decode", wireDecodeOp(t, codec)}} {
			if allocs := testing.AllocsPerRun(50, dir.op); allocs != 0 {
				t.Errorf("%s %s: %.1f allocs per steady-state message, want 0", codec, dir.name, allocs)
			}
		}
	}
}

// splitmixForTest is a tiny deterministic value source for codec tests —
// independent of math/rand (norand) and of the codec's own RNG.
type splitmixForTest struct{ s uint64 }

func newSplitmixForTest(seed int64) *splitmixForTest {
	return &splitmixForTest{s: uint64(seed)}
}

// norm returns a deterministic value roughly in [-1, 1).
func (r *splitmixForTest) norm() float64 {
	r.s += 0x9e3779b97f4a7c15
	return float64(splitmix(r.s)>>11)/(1<<52) - 1
}

// TestCodecShadowUnfused keeps FMA contraction out of the quant codecs'
// float32 shadow. The Go spec lets the compiler fuse x*y + z, across
// statements too, unless an explicit conversion rounds the product; gc
// fuses on arm64 — the paper's devices — and not on amd64, so an unguarded
// `shadow + q·scale` advances a device's shadow differently from a server's
// and error feedback corrects toward a model the other end does not hold.
// The compiler is the oracle: internal/fed is cross-compiled for arm64 with
// its assembly listing, which must hold no fused multiply-add from
// codec.go. Uncached this costs a compile (seconds); cached, the listing
// replays from the build cache.
func TestCodecShadowUnfused(t *testing.T) {
	goCmd, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("no go command to cross-compile with: %v", err)
	}
	cmd := exec.Command(goCmd, "build", "-gcflags=fedpower/internal/fed=-S", ".")
	cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH=arm64", "CGO_ENABLED=0")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("cross-compiling for arm64: %v\n%s", err, out)
	}
	listing := regexp.MustCompile(`\(\S*/codec\.go:\d+\)\s`)
	fused := regexp.MustCompile(`(?m)^.*\(\S*/codec\.go:\d+\)\s+F(N)?M(ADD|SUB)[SD]\b.*$`)
	if !listing.Match(out) {
		t.Fatalf("the arm64 build listed no instruction of codec.go; is -S reaching the compiler?\n%.2000s", out)
	}
	for _, line := range fused.FindAll(out, -1) {
		t.Errorf("fused multiply-add on arm64: %s", bytes.TrimSpace(line))
	}
}
