package fed

// Fuzz-style property tests for the federation wire format — the only data
// that crosses device boundaries, so the decoder must be total: every
// well-formed message round-trips exactly and every malformed byte stream
// returns an error instead of panicking or over-allocating. Complements the
// deterministic cases in wire_test.go the way internal/sim/fuzz_test.go
// complements the simulator's unit tests.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"net"
	"testing"

	"fedpower/internal/faultnet"
	"fedpower/internal/nn"
)

// paramsFromBytes reinterprets fuzz input as a float32 parameter vector —
// the exact value set representable on the wire, including NaN, ±Inf and
// subnormals.
func paramsFromBytes(data []byte) []float64 {
	params := make([]float64, len(data)/4)
	for i := range params {
		params[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:])))
	}
	return params
}

// sameWireValue compares two parameters as their wire representation:
// identical float32 bit patterns, with every NaN payload considered equal
// (bit-level NaN payloads are not preserved across float32↔float64
// conversion on all platforms).
func sameWireValue(a, b float64) bool {
	fa, fb := float32(a), float32(b)
	if math.IsNaN(float64(fa)) || math.IsNaN(float64(fb)) {
		return math.IsNaN(float64(fa)) && math.IsNaN(float64(fb))
	}
	return math.Float32bits(fa) == math.Float32bits(fb)
}

// FuzzWireRoundTrip checks decode(encode(x)) == x for arbitrary message
// kinds, rounds and float32 parameter payloads.
func FuzzWireRoundTrip(f *testing.F) {
	f.Add(uint8(1), uint32(1), []byte{})
	f.Add(uint8(2), uint32(100), []byte{0, 0, 128, 63})                // [1.0]
	f.Add(uint8(3), uint32(0), []byte{0, 0, 192, 255, 0, 0, 128, 127}) // [NaN, +Inf]
	f.Add(uint8(2), uint32(1<<31), []byte{1, 0, 0, 0, 255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, kind uint8, round uint32, payload []byte) {
		if kind != msgModel && kind != msgUpdate && kind != msgDone {
			kind = msgModel // round-trip needs a valid kind; totality is FuzzReadMessage's job
		}
		in := message{kind: kind, round: int(round), params: paramsFromBytes(payload)}

		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		n, err := writeMessage(w, in)
		if err != nil {
			t.Fatalf("writeMessage: %v", err)
		}
		if n != buf.Len() {
			t.Fatalf("writeMessage reported %d bytes, wrote %d", n, buf.Len())
		}
		if want := TransferSize(len(in.params)); len(in.params) > 0 && n != want {
			t.Fatalf("on-wire size %d, want TransferSize=%d", n, want)
		}

		out, err := readMessage(bufio.NewReader(bytes.NewReader(buf.Bytes())))
		if err != nil {
			t.Fatalf("readMessage of a freshly encoded message: %v", err)
		}
		if out.kind != in.kind {
			t.Fatalf("kind %d -> %d", in.kind, out.kind)
		}
		if uint32(out.round) != round {
			t.Fatalf("round %d -> %d", round, out.round)
		}
		if len(out.params) != len(in.params) {
			t.Fatalf("param count %d -> %d", len(in.params), len(out.params))
		}
		for i := range in.params {
			if !sameWireValue(in.params[i], out.params[i]) {
				t.Fatalf("param %d: %v -> %v", i, in.params[i], out.params[i])
			}
		}
	})
}

// FuzzFaultyReadMessage models the faults internal/faultnet injects on a
// live connection — truncation mid-frame and bit corruption — on top of a
// well-formed message. The decoder must error or return a complete frame
// that is consistent with the (possibly corrupted) bytes it actually read;
// it must never panic and never pass a partial frame off as success.
func FuzzFaultyReadMessage(f *testing.F) {
	f.Add(uint8(1), uint32(3), []byte{0, 0, 128, 63}, uint16(5), uint16(0), uint8(0))              // cut inside payload
	f.Add(uint8(2), uint32(1), []byte{1, 2, 3, 4, 5, 6, 7, 8}, uint16(999), uint16(0), uint8(255)) // corrupt kind
	f.Add(uint8(3), uint32(7), []byte{}, uint16(4), uint16(0), uint8(0))                           // cut inside header
	f.Add(uint8(4), uint32(9), []byte{}, uint16(999), uint16(6), uint8(128))                       // corrupt count of a join
	f.Add(uint8(1), uint32(2), []byte{0, 0, 192, 255}, uint16(999), uint16(7), uint8(64))          // inflate count
	f.Fuzz(func(t *testing.T, kind uint8, round uint32, payload []byte, cut uint16, xorIdx uint16, xorMask uint8) {
		switch kind % 4 {
		case 0:
			kind = msgModel
		case 1:
			kind = msgUpdate
		case 2:
			kind = msgDone
		case 3:
			kind = msgJoin
		}
		in := message{kind: kind, round: int(round), params: paramsFromBytes(payload)}
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		if _, err := writeMessage(w, in); err != nil {
			t.Fatalf("writeMessage: %v", err)
		}
		wire := buf.Bytes()

		// Fault 1: flip bits of one byte anywhere in the frame.
		if xorMask != 0 && len(wire) > 0 {
			wire[int(xorIdx)%len(wire)] ^= xorMask
		}
		// Fault 2: truncate the frame at an arbitrary point (a cut past the
		// end leaves it whole).
		if int(cut) < len(wire) {
			wire = wire[:cut]
		}

		m, err := readMessage(bufio.NewReader(bytes.NewReader(wire)))
		if err != nil {
			return // faulty input must error, and did
		}
		// The decoder claimed success: the frame it returned must be
		// complete and consistent with the bytes that were available.
		if len(wire) < headerSize {
			t.Fatalf("decoder succeeded on a %d-byte stream, shorter than the header", len(wire))
		}
		if m.kind != msgModel && m.kind != msgUpdate && m.kind != msgDone && m.kind != msgJoin && m.kind != msgRelay {
			t.Fatalf("decoder accepted unknown message kind %d", m.kind)
		}
		count := int(binary.LittleEndian.Uint32(wire[5:]))
		if m.kind == msgRelay {
			// A corrupted kind byte can turn a frame into a relay; success
			// then requires a complete, consistent accumulator block.
			if m.count != count {
				t.Fatalf("decoder returned %d sums for a relay header declaring %d", m.count, count)
			}
			if m.leaves < 1 {
				t.Fatalf("decoder accepted a relay frame with leaf count %d", m.leaves)
			}
			if len(wire) < headerSize+8 {
				t.Fatalf("decoder returned a relay frame from %d bytes, shorter than its preamble", len(wire))
			}
			blen := int(binary.LittleEndian.Uint32(wire[headerSize+4:]))
			if len(wire) < headerSize+8+blen {
				t.Fatalf("decoder returned a relay frame from %d bytes, needs %d — partial sub-sum passed as success",
					len(wire), headerSize+8+blen)
			}
			if len(m.block) != blen {
				t.Fatalf("decoder returned a %d-byte block for a preamble declaring %d", len(m.block), blen)
			}
			decodeRelayBlock(t, m.block, count)
			return
		}
		if m.kind == msgJoin {
			// A join's count field carries the codec wire ID, not a
			// parameter count; the frame is payload-free by definition.
			if len(m.params) != 0 {
				t.Fatalf("decoder returned %d params for a join frame", len(m.params))
			}
			if int(m.codec) != count {
				t.Fatalf("decoder returned codec %d for a header declaring %d", m.codec, count)
			}
			return
		}
		if len(m.params) != count {
			t.Fatalf("decoder returned %d params for a header declaring %d", len(m.params), count)
		}
		if need := headerSize + nn.WireSize(count); len(wire) < need {
			t.Fatalf("decoder returned a %d-param frame from %d bytes, needs %d — partial frame passed as success",
				count, len(wire), need)
		}
	})
}

// FuzzReadMessage feeds arbitrary bytes to the decoder: it must either
// return a structurally valid message or an error — never panic, and never
// allocate beyond the maxWireParams bound.
func FuzzReadMessage(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0})                                                         // unknown kind 0
	f.Add([]byte{1, 1, 0, 0, 0, 0, 0, 0, 0})                                                         // model, 0 params
	f.Add([]byte{2, 1, 0, 0, 0, 1, 0, 0, 0})                                                         // update, 1 param, truncated payload
	f.Add([]byte{3, 0, 0, 0, 0, 255, 255, 255, 255})                                                 // done, absurd count
	f.Add(append([]byte{1, 1, 0, 0, 0, 1, 0, 0, 0}, 0, 0, 128, 63))                                  // complete 1-param model
	f.Add([]byte{5, 1, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 10, 0, 0, 0, 1, 17, 3, 0, 0, 0, 0, 0, 0, 0}) // relay, 1 sum, 2 leaves
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := readMessage(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return // malformed input must error, and did
		}
		if m.kind != msgModel && m.kind != msgUpdate && m.kind != msgDone && m.kind != msgJoin && m.kind != msgRelay {
			t.Fatalf("decoder accepted unknown message kind %d", m.kind)
		}
		if len(m.params) > maxWireParams {
			t.Fatalf("decoder exceeded the parameter bound: %d params", len(m.params))
		}
		if m.count > maxWireParams {
			t.Fatalf("decoder exceeded the accumulator bound: %d sums", m.count)
		}
		if m.kind == msgRelay {
			// An accepted relay block is exactly count encodings. It may be
			// non-canonical (padded spans decode too), so the re-encode of
			// the sum it merges into need not match its size — but it must
			// decode back to the same accumulators and leaf count.
			sums := decodeRelayBlock(t, m.block, m.count)
			s := nn.NewParamSum(m.count)
			s.AddWire(m.block)
			var buf bytes.Buffer
			if _, err := writeMessage(bufio.NewWriter(&buf), message{kind: msgRelay, round: m.round, leaves: m.leaves, sum: s}); err != nil {
				t.Fatalf("re-encode of decoded relay frame: %v", err)
			}
			m2, err := readMessage(bufio.NewReader(bytes.NewReader(buf.Bytes())))
			if err != nil {
				t.Fatalf("re-decode of re-encoded relay frame: %v", err)
			}
			if m2.leaves != m.leaves || m2.count != m.count {
				t.Fatalf("relay round-trip changed shape: leaves %d->%d, sums %d->%d",
					m.leaves, m2.leaves, m.count, m2.count)
			}
			for i, a := range decodeRelayBlock(t, m2.block, m2.count) {
				// Accum's limbs outside its live span are stale, so compare
				// values through their canonical encodings.
				if !bytes.Equal(sums[i].AppendWire(nil), a.AppendWire(nil)) {
					t.Fatalf("relay round-trip changed accumulator %d", i)
				}
			}
			return
		}
		// A successfully decoded message must itself round-trip.
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		if _, err := writeMessage(w, m); err != nil {
			t.Fatalf("re-encode of decoded message: %v", err)
		}
		want := headerSize + nn.WireSize(len(m.params))
		if m.kind == msgJoin {
			want = headerSize // joins are payload-free; count carries the codec ID
		}
		if buf.Len() != want {
			t.Fatalf("re-encoded size %d, want %d", buf.Len(), want)
		}
	})
}

// decodeRelayBlock requires an accepted relay block to be exactly count
// accumulator encodings, read one by one with nn.DecodeAccumInto, that
// consume every byte, and returns the accumulators.
func decodeRelayBlock(t *testing.T, block []byte, count int) []nn.Accum {
	t.Helper()
	sums := make([]nn.Accum, count)
	rest := block
	for i := range sums {
		n, err := nn.DecodeAccumInto(&sums[i], rest)
		if err != nil {
			t.Fatalf("accepted relay block: accumulator %d of %d does not decode: %v", i, count, err)
		}
		rest = rest[n:]
	}
	if len(rest) != 0 {
		t.Fatalf("accepted relay block has %d bytes past its %d accumulators", len(rest), count)
	}
	return sums
}

// relayFrameBytes encodes one well-formed relay frame for seeding the relay
// fuzzer.
func relayFrameBytes(tb testing.TB, numParams, leaves int) []byte {
	sum := nn.NewParamSum(numParams)
	a, b := make([]float64, numParams), make([]float64, numParams)
	for i := range a {
		a[i], b[i] = float64(i)+0.5, -1.0/float64(i+3)
	}
	sum.Add(a)
	sum.Add(b)
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if _, err := writeMessage(w, message{kind: msgRelay, round: 1, leaves: leaves, sum: sum}); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzRelayFrame drives an interior aggregator's collect path with
// truncated and corrupted child relay frames, layered under faultnet's
// seeded connection faults. Whatever arrives, the aggregator must never
// panic, never accept a partial sub-sum as a contribution (every accepted
// relay carries exactly the declared accumulator count and a positive leaf
// population), and on failure must surface a typed *RoundError carrying the
// child hop's ID.
func FuzzRelayFrame(f *testing.F) {
	f.Add(relayFrameBytes(f, 3, 4), uint16(9999), uint16(0), uint8(0), int64(0))
	f.Add(relayFrameBytes(f, 3, 4), uint16(12), uint16(0), uint8(0), int64(0))   // cut inside preamble
	f.Add(relayFrameBytes(f, 3, 4), uint16(22), uint16(0), uint8(0), int64(0))   // cut inside block
	f.Add(relayFrameBytes(f, 3, 4), uint16(9999), uint16(0), uint8(7), int64(0)) // corrupt kind byte
	f.Add(relayFrameBytes(f, 3, 1), uint16(9999), uint16(9), uint8(255), int64(1))
	f.Add(relayFrameBytes(f, 3, 2), uint16(9999), uint16(13), uint8(128), int64(2)) // corrupt block length
	f.Add([]byte{5, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 10, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0}, uint16(9999), uint16(0), uint8(0), int64(3))
	f.Fuzz(func(t *testing.T, frame []byte, cut uint16, xorIdx uint16, xorMask uint8, seed int64) {
		const numParams = 3
		if xorMask != 0 && len(frame) > 0 {
			frame[int(xorIdx)%len(frame)] ^= xorMask
		}
		if int(cut) < len(frame) {
			frame = frame[:cut]
		}

		child, parent := net.Pipe()
		defer child.Close()
		defer parent.Close()
		inj := faultnet.NewInjector(seed, faultnet.Config{DropRate: 0.05, TruncateRate: 0.15})
		go func() {
			_, _ = child.Write(frame)
			_ = child.Close()
		}()

		s := &Server{}
		wrapped := inj.Wrap(parent)
		sc := &serverConn{
			conn: wrapped,
			r:    bufio.NewReader(wrapped),
			w:    bufio.NewWriter(wrapped),
			id:   7,
			tx:   newCodecState(Codec{}, streamDown+14),
			rx:   newCodecState(Codec{}, streamUp+14),
		}
		ses := s.newSession()
		defer ses.workers.Close()
		ses.pool = []*serverConn{sc}
		contribs, firstErr := ses.collect(1, numParams)
		if firstErr != nil {
			if len(contribs) != 0 {
				t.Fatalf("collect surfaced an error and %d contributions", len(contribs))
			}
			var re *RoundError
			if !errors.As(firstErr, &re) {
				t.Fatalf("collect error is %T, want *RoundError: %v", firstErr, firstErr)
			}
			if re.Client != 7 {
				t.Fatalf("RoundError names client %d, want the child hop 7", re.Client)
			}
			if re.Phase != PhaseCollect {
				t.Fatalf("RoundError phase %v, want %v", re.Phase, PhaseCollect)
			}
			return
		}
		// The collect claimed success: the contribution must be whole.
		if len(contribs) != 1 {
			t.Fatalf("no error but %d contributions", len(contribs))
		}
		c := contribs[0]
		switch {
		case c.sums != nil:
			if c.leaves < 1 {
				t.Fatalf("partial relay accepted: %d leaves", c.leaves)
			}
			if blen := int(binary.LittleEndian.Uint32(frame[headerSize+4:])); len(c.sums) != blen {
				t.Fatalf("partial relay accepted: %d block bytes of %d", len(c.sums), blen)
			}
			decodeRelayBlock(t, c.sums, numParams)
		case c.params != nil:
			if len(c.params) != numParams || c.leaves != 1 {
				t.Fatalf("partial update accepted: %d params, %d leaves", len(c.params), c.leaves)
			}
		default:
			t.Fatal("empty contribution accepted")
		}
	})
}

// codecPair builds a connected encoder/decoder state pair for one wire
// direction under the codec, as the two ends of a connection would hold.
func codecPair(c Codec) (enc, dec *codecState) {
	return newCodecState(c, streamDown), newCodecState(c, streamDown)
}

// FuzzDeltaRoundTrip drives a delta-codec connection with two successive
// models derived from fuzz input: both messages must reconstruct
// bit-exactly on the decode side (the codec's defining guarantee), and
// feeding the decoder arbitrary bytes must error or succeed without
// panicking.
func FuzzDeltaRoundTrip(f *testing.F) {
	f.Add([]byte{0, 0, 128, 63, 0, 0, 192, 255}, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{}, []byte{9, 9})
	f.Add([]byte{0, 0, 128, 127, 0, 0, 128, 255}, []byte{0, 0, 0, 0}) // ±Inf then zeros
	f.Fuzz(func(t *testing.T, first, second []byte) {
		enc, dec := codecPair(DeltaCodec())
		// Successive models must share a length on a live connection; trim
		// the second to the first's shape.
		p1 := paramsFromBytes(first)
		p2 := paramsFromBytes(second)
		for len(p2) < len(p1) {
			p2 = append(p2, 0)
		}
		p2 = p2[:len(p1)]
		for round, in := range [][]float64{p1, p2} {
			payload := append([]byte(nil), enc.encodePayload(in)...)
			out, err := dec.decodePayload(nil, len(in), payload)
			if err != nil {
				t.Fatalf("round %d: decode of a fresh delta payload: %v", round, err)
			}
			for i := range in {
				if !sameWireValue(in[i], out[i]) {
					t.Fatalf("round %d param %d: %v -> %v (delta must be bit-exact)", round, i, in[i], out[i])
				}
			}
		}
		// Totality: arbitrary bytes through a delta reader never panic.
		hostile := newCodecState(DeltaCodec(), streamUp)
		var m message
		_, _ = hostile.readMessage(bufio.NewReader(bytes.NewReader(second)), &m)
	})
}

// FuzzQuantRoundTrip drives a quantized-delta connection with fuzz-derived
// models: whatever the values (including NaN and ±Inf), encode and decode
// must never panic, and the decoder's reconstruction must equal the
// encoder's shadow bit-for-bit — the invariant that keeps the two ends of
// a connection in sync and the error-feedback accumulator truthful.
func FuzzQuantRoundTrip(f *testing.F) {
	f.Add(uint8(8), []byte{0, 0, 128, 63, 205, 204, 76, 62}, []byte{3, 1, 4, 1})
	f.Add(uint8(16), []byte{0, 0, 192, 255, 0, 0, 128, 127}, []byte{})
	f.Fuzz(func(t *testing.T, bits uint8, first, second []byte) {
		width := 8
		if bits%2 == 1 {
			width = 16
		}
		codec, err := QuantCodec(width, int64(bits))
		if err != nil {
			t.Fatal(err)
		}
		enc, dec := codecPair(codec)
		p1 := paramsFromBytes(first)
		p2 := paramsFromBytes(second)
		for len(p2) < len(p1) {
			p2 = append(p2, 0)
		}
		p2 = p2[:len(p1)]
		for round, in := range [][]float64{p1, p2} {
			payload := append([]byte(nil), enc.encodePayload(in)...)
			out, err := dec.decodePayload(nil, len(in), payload)
			if err != nil {
				t.Fatalf("round %d: decode of a fresh quant payload: %v", round, err)
			}
			for i := range in {
				want := float64(math.Float32frombits(enc.shadow[i]))
				got := out[i]
				if math.IsNaN(want) && math.IsNaN(got) {
					continue
				}
				if math.Float64bits(want) != math.Float64bits(got) {
					t.Fatalf("round %d param %d: decoder reconstructed %v, encoder shadow holds %v", round, i, got, want)
				}
			}
		}
		// Totality: arbitrary bytes through a quant reader never panic.
		hostile := newCodecState(codec, streamUp)
		var m message
		_, _ = hostile.readMessage(bufio.NewReader(bytes.NewReader(first)), &m)
	})
}
