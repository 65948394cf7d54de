package fed

import (
	"encoding/binary"
	"fmt"
	"math"

	"fedpower/internal/nn"
)

// Parameter codecs: how a model vector is represented on the federated
// wire. The paper ships the full dense float32 vector every round (2.8 kB
// for 687 parameters, §IV-C); at fleet scale the wire is the dominant
// per-round cost, so the transport supports three negotiated encodings:
//
//	dense   — float32 little-endian, 4 B/param. The default, byte-identical
//	          to the original protocol and to the paper's accounting.
//	delta   — the difference between the current model and a float32 shadow
//	          of the last exchanged model, shipped as uint32 bit-pattern
//	          deltas (mod 2³²), 4 B/param. Reconstruction is bit-exact by
//	          construction — integer arithmetic, no float rounding — and
//	          the payload is highly compressible because most weights
//	          barely move between rounds. An extension beyond the paper.
//	quant8/ — stochastic int8/int16 quantization of that delta with a
//	quant16   client-side error-feedback accumulator: 1 B or 2 B per param
//	          plus one float32 scale per message. Lossy and opt-in, cutting
//	          model-bearing bytes 4× (quant8) or 2× (quant16); the
//	          quantization error is carried forward and re-injected into
//	          the next message, so it averages out over rounds.
//
// The codec is negotiated in the join frame: the client puts its codec's
// wire ID in the header's count field (dense = 0, so a dense join frame is
// byte-identical to the pre-codec protocol) and the server rejects joins
// whose codec differs from its own. Both directions of a connection use
// the same codec; shadows and error accumulators are per-connection state,
// so a reconnecting device starts from zero shadows on both sides and the
// rejoin path stays consistent by construction.
//
// Every codec's decoder output for a vector x equals float64(float32(x))
// plus, for the quantized modes, the bounded quantization residual — so
// dense and delta produce bit-identical federated runs, which
// TestCodecDeltaBitIdentical pins in-process and over TCP.

// Codec wire IDs, as carried in the join frame's count field.
const (
	codecDense   = byte(0)
	codecDelta   = byte(1)
	codecQuant8  = byte(2)
	codecQuant16 = byte(3)
)

// Codec selects a parameter encoding for the federated transport. On the
// wire the zero value behaves as the dense float32 encoding — today's
// format — so existing callers are unaffected; for the in-process
// orchestrators only an explicitly constructed codec activates wire
// emulation (the zero value keeps their historical raw-float64 exchange).
// Construct with DenseCodec, DeltaCodec, QuantCodec or ParseCodec; a Codec
// is a value (no state), safe to copy and share: per-connection codec state
// lives in the transport.
type Codec struct {
	id   byte
	seed int64 // stochastic-rounding seed (quantized modes only)
	set  bool  // explicitly constructed (activates in-process wire emulation)
}

// active reports whether the codec was explicitly constructed — the switch
// the in-process orchestrators use to decide between their historical raw
// float64 exchange (zero Codec) and full wire emulation.
func (c Codec) active() bool { return c.set }

// DenseCodec returns the dense float32 codec — the paper's wire format and
// the default.
func DenseCodec() Codec { return Codec{id: codecDense, set: true} }

// DeltaCodec returns the bit-exact shadow-delta codec.
func DeltaCodec() Codec { return Codec{id: codecDelta, set: true} }

// QuantCodec returns the stochastic quantized-delta codec with the given
// sample width (8 or 16 bits) and rounding seed. The seed keeps quantized
// runs replayable: the same seed produces the same rounding decisions, so
// the determinism gate covers quantized federations too.
func QuantCodec(bits int, seed int64) (Codec, error) {
	switch bits {
	case 8:
		return Codec{id: codecQuant8, seed: seed, set: true}, nil
	case 16:
		return Codec{id: codecQuant16, seed: seed, set: true}, nil
	}
	return Codec{}, fmt.Errorf("fed: quantized codec width %d, want 8 or 16", bits)
}

// ParseCodec resolves a codec name — "dense", "delta", "quant8" or
// "quant16" — as accepted by the -codec CLI flags. Quantized codecs parse
// with seed 0; use Seeded to bind a run seed.
func ParseCodec(name string) (Codec, error) {
	switch name {
	case "", "dense":
		return DenseCodec(), nil
	case "delta":
		return DeltaCodec(), nil
	case "quant8":
		return QuantCodec(8, 0)
	case "quant16":
		return QuantCodec(16, 0)
	}
	return Codec{}, fmt.Errorf("fed: unknown codec %q (want dense, delta, quant8 or quant16)", name)
}

// Seeded returns the codec with its stochastic-rounding seed replaced; a
// no-op for the lossless codecs, which draw no randomness.
func (c Codec) Seeded(seed int64) Codec {
	if c.id == codecQuant8 || c.id == codecQuant16 {
		c.seed = seed
	}
	return c
}

// String returns the codec's flag name.
func (c Codec) String() string {
	switch c.id {
	case codecDelta:
		return "delta"
	case codecQuant8:
		return "quant8"
	case codecQuant16:
		return "quant16"
	default:
		return "dense"
	}
}

// Lossless reports whether decoding reproduces the encoder's float32 view
// of the model bit-exactly.
func (c Codec) Lossless() bool { return c.id == codecDense || c.id == codecDelta }

// payloadSize returns the encoded payload bytes for n parameters.
func (c Codec) payloadSize(n int) int {
	if n == 0 {
		return 0
	}
	switch c.id {
	case codecQuant8:
		return quantMetaSize + n
	case codecQuant16:
		return quantMetaSize + 2*n
	default: // dense and delta are both 4 B/param
		return nn.WireSize(n)
	}
}

// TransferSize returns the on-wire bytes of one model message for n
// parameters under this codec: the 9-byte header plus the encoded payload.
// The dense value matches the package-level TransferSize and the paper's
// §IV-C accounting.
func (c Codec) TransferSize(n int) int { return headerSize + c.payloadSize(n) }

// quantMetaSize is the per-message metadata of the quantized codecs: one
// float32 scale factor.
const quantMetaSize = 4

// quantMax returns the magnitude bound of the quantized sample grid.
func (c Codec) quantMax() int32 {
	if c.id == codecQuant16 {
		return math.MaxInt16
	}
	return math.MaxInt8
}

// codecState is the per-connection, per-direction state of a codec: the
// float32 shadow of the last model exchanged in that direction, the
// error-feedback accumulator and rounding RNG of the quantized modes, and
// the encode/decode scratch buffers that make the steady-state wire path
// allocation-free. The zero value is a fresh dense codec; both ends of a
// connection construct their states from the negotiated Codec, and a
// reconnect starts from fresh (zero-shadow) state on both sides.
type codecState struct {
	codec Codec

	shadow  []uint32         // float32 bit patterns of the last exchanged model
	carry   []float32        // error-feedback accumulator (quant encode side only)
	rng     uint64           // splitmix64 state for stochastic rounding
	scratch []byte           // encode/decode payload buffer, grown once
	hdr     [headerSize]byte // header scratch — stack arrays escape through io interfaces
	pre     [8]byte          // relay preamble scratch, for the same reason
}

// newCodecState builds one direction's state. stream disambiguates the two
// directions of a connection (and, in-process, the per-client links) so
// quantized rounding draws from independent, replayable streams.
func newCodecState(c Codec, stream int64) *codecState {
	cs := &codecState{codec: c}
	cs.rng = mixSeed(uint64(c.seed), uint64(stream))
	return cs
}

// mixSeed derives a splitmix64 state from a root and a stream identifier,
// mirroring the experiment harness's subseed derivation so distinct
// (seed, stream) pairs cannot collide through simple integer relations.
func mixSeed(root, stream uint64) uint64 {
	const golden = 0x9e3779b97f4a7c15
	z := splitmix(root + golden)
	return splitmix(z + stream + golden)
}

// splitmix is the SplitMix64 finaliser.
func splitmix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// next advances the rounding RNG and returns a uniform draw in [0, 1).
func (cs *codecState) next() float64 {
	cs.rng += 0x9e3779b97f4a7c15
	return float64(splitmix(cs.rng)>>11) / (1 << 53)
}

// grow ensures the shadow (and, for the encoder of a quantized codec, the
// carry) covers n parameters. The model size is fixed per federation, so
// this allocates once per connection.
func (cs *codecState) grow(n int) {
	if cap(cs.shadow) < n {
		cs.shadow = make([]uint32, n)
	}
	cs.shadow = cs.shadow[:n]
}

// growCarry sizes the error-feedback accumulator alongside the shadow.
func (cs *codecState) growCarry(n int) {
	if cap(cs.carry) < n {
		cs.carry = make([]float32, n)
	}
	cs.carry = cs.carry[:n]
}

// growScratch sizes the payload buffer.
func (cs *codecState) growScratch(n int) []byte {
	if cap(cs.scratch) < n {
		cs.scratch = make([]byte, n)
	}
	cs.scratch = cs.scratch[:n]
	return cs.scratch
}

// encodePayload encodes params under the codec, updating this direction's
// shadow state, and returns the payload backed by the state's scratch
// buffer — valid until the next encode. Codec encoders are a privacytaint
// sink, like nn.EncodeParams: only clean, Params-derived vectors may be
// encoded for transfer.
//
//fedlint:allocfree
func (cs *codecState) encodePayload(params []float64) []byte {
	if len(params) == 0 {
		return nil
	}
	switch cs.codec.id {
	case codecDelta:
		return cs.encodeDelta(params)
	case codecQuant8, codecQuant16:
		return cs.encodeQuant(params)
	default:
		cs.scratch = nn.EncodeParamsInto(cs.scratch, params)
		return cs.scratch
	}
}

// decodePayload decodes a payload for count parameters into dst (grown as
// needed), updating this direction's shadow state, and returns the decoded
// vector.
//
//fedlint:allocfree
func (cs *codecState) decodePayload(dst []float64, count int, payload []byte) ([]float64, error) {
	if len(payload) != cs.codec.payloadSize(count) {
		return dst, fmt.Errorf("fed: codec %s: %d payload bytes for %d params (want %d)",
			cs.codec, len(payload), count, cs.codec.payloadSize(count))
	}
	if count == 0 {
		return dst[:0], nil
	}
	switch cs.codec.id {
	case codecDelta:
		return cs.decodeDelta(dst, count, payload), nil
	case codecQuant8, codecQuant16:
		return cs.decodeQuant(dst, count, payload), nil
	default:
		return nn.DecodeParamsInto(dst, payload)
	}
}

// encodeDelta ships d_i = bits(float32(params_i)) − shadow_i (mod 2³²).
// The receiver adds d_i back onto its identical shadow, recovering the
// exact float32 bit pattern — integer arithmetic, so reconstruction is
// bit-exact regardless of the values involved (IEEE float subtraction
// could not promise that). A fresh connection has a zero shadow and the
// first message therefore carries the raw bit patterns.
func (cs *codecState) encodeDelta(params []float64) []byte {
	cs.grow(len(params))
	buf := cs.growScratch(4 * len(params))
	for i, p := range params {
		bits := math.Float32bits(float32(p))
		binary.LittleEndian.PutUint32(buf[4*i:], bits-cs.shadow[i])
		cs.shadow[i] = bits
	}
	return buf
}

// decodeDelta reverses encodeDelta against this direction's shadow.
func (cs *codecState) decodeDelta(dst []float64, count int, payload []byte) []float64 {
	cs.grow(count)
	if cap(dst) < count {
		dst = make([]float64, count)
	}
	dst = dst[:count]
	for i := range dst {
		cs.shadow[i] += binary.LittleEndian.Uint32(payload[4*i:])
		dst[i] = float64(math.Float32frombits(cs.shadow[i]))
	}
	return dst
}

// encodeQuant stochastically quantizes the residual between the model and
// this direction's float32 shadow, carrying the quantization error forward
// (error feedback): v = f32(p) − shadow + carry is quantized onto a
// per-message scale grid, the grid step is shipped as one float32, and
// both sides advance their shadows by the identical float32 arithmetic —
// so the decoder's output equals the encoder's shadow bit-for-bit and the
// error accumulator always measures the true residual. Rounding draws from
// the connection's seeded splitmix stream, keeping runs replayable.
func (cs *codecState) encodeQuant(params []float64) []byte {
	n := len(params)
	cs.grow(n)
	cs.growCarry(n)
	qmax := cs.codec.quantMax()
	wide := cs.codec.id == codecQuant16
	sample := 1
	if wide {
		sample = 2
	}
	buf := cs.growScratch(quantMetaSize + sample*n)

	// Pass 1: residuals and their magnitude bound, in float32 arithmetic
	// mirrored exactly by the decoder's shadow updates.
	var maxAbs float32
	for i, p := range params {
		v := float32(p) - math.Float32frombits(cs.shadow[i]) + cs.carry[i]
		if a := float32(math.Abs(float64(v))); a > maxAbs && a < float32(math.Inf(1)) {
			maxAbs = a
		}
	}
	var scale float32
	if maxAbs > 0 {
		scale = maxAbs / float32(qmax)
	}
	binary.LittleEndian.PutUint32(buf, math.Float32bits(scale))

	// Pass 2: stochastic rounding onto the grid, error feedback, shadow
	// advance.
	for i, p := range params {
		v := float32(p) - math.Float32frombits(cs.shadow[i]) + cs.carry[i]
		var q int32
		if scale > 0 {
			r := float64(v) / float64(scale)
			lo := math.Floor(r)
			q = int32(lo)
			if r-lo > cs.next() {
				q++
			}
			if q > qmax {
				q = qmax
			} else if q < -qmax {
				q = -qmax
			}
		}
		// The explicit conversion rounds the product, so no port fuses it
		// into the adds below (TestCodecShadowUnfused).
		step := float32(float32(q) * scale)
		cs.carry[i] = v - step
		cs.shadow[i] = math.Float32bits(math.Float32frombits(cs.shadow[i]) + step)
		if wide {
			binary.LittleEndian.PutUint16(buf[quantMetaSize+2*i:], uint16(int16(q)))
		} else {
			buf[quantMetaSize+i] = byte(int8(q))
		}
	}
	return buf
}

// decodeQuant advances this direction's shadow by the shipped quantized
// steps — the same float32 arithmetic as the encoder — and returns it.
func (cs *codecState) decodeQuant(dst []float64, count int, payload []byte) []float64 {
	cs.grow(count)
	if cap(dst) < count {
		dst = make([]float64, count)
	}
	dst = dst[:count]
	scale := math.Float32frombits(binary.LittleEndian.Uint32(payload))
	wide := cs.codec.id == codecQuant16
	for i := range dst {
		var q int32
		if wide {
			q = int32(int16(binary.LittleEndian.Uint16(payload[quantMetaSize+2*i:])))
		} else {
			q = int32(int8(payload[quantMetaSize+i]))
		}
		step := float32(float32(q) * scale) // rounded, as the encoder's
		cs.shadow[i] = math.Float32bits(math.Float32frombits(cs.shadow[i]) + step)
		dst[i] = float64(math.Float32frombits(cs.shadow[i]))
	}
	return dst
}

// Stream identifiers for the two directions of a connection; in-process
// links offset these by the client index.
const (
	streamDown = 0 // server → client (broadcast)
	streamUp   = 1 // client → server (update)
)

// codecLink is the in-process mirror of one client's TCP connection: a
// down (broadcast) and an up (update) encode/decode pair. Threading the
// in-process orchestrator through a link reproduces the TCP transport's
// float32 wire semantics exactly — the basis for the bit-identical
// dense/delta federation guarantee — while remaining allocation-free at
// steady state. Each link belongs to exactly one client and is touched
// only by that client's worker goroutine.
type codecLink struct {
	downTx, downRx *codecState
	upTx, upRx     *codecState
	globalBuf      []float64 // broadcast decode buffer, reused across rounds
	updateBuf      []float64 // update decode buffer, reused across rounds
}

// newCodecLink builds client i's link under the codec.
func newCodecLink(c Codec, i int) *codecLink {
	return &codecLink{
		downTx: newCodecState(c, int64(streamDown+2*i)),
		downRx: newCodecState(c, int64(streamDown+2*i)),
		upTx:   newCodecState(c, int64(streamUp+2*i)),
		upRx:   newCodecState(c, int64(streamUp+2*i)),
	}
}

// broadcast passes the global model through the down direction and returns
// the client's decoded view, valid until the next broadcast.
func (l *codecLink) broadcast(global []float64) ([]float64, error) {
	payload := l.downTx.encodePayload(global)
	decoded, err := l.downRx.decodePayload(l.globalBuf, len(global), payload)
	l.globalBuf = decoded
	return decoded, err
}

// update passes a client's locally optimised model through the up
// direction and returns the server's decoded view, valid until the next
// update.
func (l *codecLink) update(params []float64) ([]float64, error) {
	payload := l.upTx.encodePayload(params)
	decoded, err := l.upRx.decodePayload(l.updateBuf, len(params), payload)
	l.updateBuf = decoded
	return decoded, err
}
