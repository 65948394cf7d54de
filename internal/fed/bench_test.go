package fed

// Wire-path fixtures and benchmarks at the paper's model size (687
// parameters — a 2757 B dense frame, §IV-C). The steady-state contract is
// 0 allocs for every codec: encode scratch, decode buffers and the reusable
// message all belong to the per-connection codec state. The contract is
// asserted by TestCodecStateReuseAllocFree; the benchmarks below are the
// per-codec cost model and gate nothing.

import (
	"bufio"
	"bytes"
	"io"
	"testing"
)

// benchCodecs enumerates the wire codecs by flag name.
func benchCodecs(tb testing.TB) []Codec {
	tb.Helper()
	return []Codec{DenseCodec(), DeltaCodec(), mustQuant(tb, 8), mustQuant(tb, 16)}
}

// benchParams builds a paper-sized parameter vector.
func benchParams() []float64 {
	params := make([]float64, paperParams)
	rng := newSplitmixForTest(11)
	for i := range params {
		params[i] = rng.norm()
	}
	return params
}

// wireEncodeOp returns the steady-state encode of one model message under
// codec: the first message, which sizes the codec's buffers, is already
// written.
func wireEncodeOp(tb testing.TB, codec Codec) func() {
	cs := newCodecState(codec, streamDown)
	msg := message{kind: msgModel, round: 1, params: benchParams()}
	w := bufio.NewWriter(io.Discard)
	op := func() {
		if _, err := cs.writeMessage(w, msg); err != nil {
			tb.Fatal(err)
		}
	}
	op()
	return op
}

// wireDecodeOp returns the steady-state decode of one model message under
// codec. Replaying one frame keeps the decoder hot without re-encoding; for
// the stateful codecs it advances the shadow by the same delta each time,
// which exercises the identical code path.
func wireDecodeOp(tb testing.TB, codec Codec) func() {
	enc, dec := codecPair(codec)
	var frame bytes.Buffer
	w := bufio.NewWriter(&frame)
	if _, err := enc.writeMessage(w, message{kind: msgModel, round: 1, params: benchParams()}); err != nil {
		tb.Fatal(err)
	}
	wire := frame.Bytes()
	br := bytes.NewReader(wire)
	r := bufio.NewReader(br)
	var m message
	op := func() {
		br.Reset(wire)
		r.Reset(br)
		if _, err := dec.readMessage(r, &m); err != nil {
			tb.Fatal(err)
		}
	}
	op()
	return op
}

func BenchmarkWireEncode(b *testing.B) {
	for _, codec := range benchCodecs(b) {
		b.Run(codec.String(), func(b *testing.B) {
			op := wireEncodeOp(b, codec)
			b.SetBytes(int64(codec.TransferSize(paperParams)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
		})
	}
}

func BenchmarkWireDecode(b *testing.B) {
	for _, codec := range benchCodecs(b) {
		b.Run(codec.String(), func(b *testing.B) {
			op := wireDecodeOp(b, codec)
			b.SetBytes(int64(codec.TransferSize(paperParams)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
		})
	}
}
