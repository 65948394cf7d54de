package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"fedpower/internal/fed"
	"fedpower/internal/nn"
)

const (
	numParams     = 687 // the paper's 5-32-15 policy network
	updateVectors = 8   // precomputed client updates a device answers with
	checkEvery    = 100 // every 100th round's global is checked against nn.AverageParams
)

// seededParams returns a parameter vector drawn from the seed whose values
// survive the wire's float32 round trip unchanged, so a transported mean
// can be compared bit for bit with one computed in place.
func seededParams(seed int64, k int) []float64 {
	rng := rand.New(rand.NewSource(seed*1000 + int64(k)))
	p := make([]float64, numParams)
	for i := range p {
		p[i] = float64(float32(rng.Float64()*2 - 1))
	}
	return p
}

// fleet is a federation over TCP loopback whose devices do no training:
// each is one goroutine parked in Conn.Participate that answers a broadcast
// with one of a few precomputed update vectors. fanouts {16} is a flat
// server with 16 devices, {4, 4} a root over 4 aggregators of 4 devices.
type fleet struct {
	fanouts []int
	codec   fed.Codec
	seed    uint64
	initial []float64
	updates [][]float64

	base time.Time
	// entry[d][r] and exit[d][r] are when device d was handed round r's
	// broadcast and when it returned its update; nil unless traced.
	entry, exit [][]int64
}

func newFleet(seed int64, codec fed.Codec, fanouts ...int) *fleet {
	f := &fleet{fanouts: fanouts, codec: codec, seed: uint64(seed), initial: seededParams(seed, updateVectors)}
	for k := 0; k < updateVectors; k++ {
		f.updates = append(f.updates, seededParams(seed, k))
	}
	return f
}

func (f *fleet) devices() int {
	n := 1
	for _, k := range f.fanouts {
		n *= k
	}
	return n
}

// pick is device dev's answer in the given round: a pure function of seed,
// device and round, so the expected global of any round can be recomputed.
func (f *fleet) pick(dev, round int) []float64 {
	z := f.seed + uint64(dev)*0x9e3779b97f4a7c15 + uint64(round)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return f.updates[(z^(z>>31))%updateVectors]
}

// expected writes the global model round must commit: the exact mean of
// that round's answers.
func (f *fleet) expected(dst []float64, round int) {
	srcs := make([][]float64, f.devices())
	for d := range srcs {
		srcs[d] = f.pick(d, round)
	}
	nn.AverageParams(dst, srcs...)
}

// client is device dev's side of a round.
func (f *fleet) client(dev int) fed.ClientFunc {
	if f.entry == nil {
		return func(round int, _ []float64) ([]float64, error) { return f.pick(dev, round), nil }
	}
	entry, exit := f.entry[dev], f.exit[dev]
	return func(round int, _ []float64) ([]float64, error) {
		entry[round] = int64(time.Since(f.base))
		u := f.pick(dev, round)
		exit[round] = int64(time.Since(f.base))
		return u, nil
	}
}

// clients returns every device's client for the in-process runners.
func (f *fleet) clients() []fed.Client {
	cs := make([]fed.Client, f.devices())
	for d := range cs {
		cs[d] = f.client(d)
	}
	return cs
}

// fleetStats is what a finished federation reports.
type fleetStats struct {
	uplinkBytes int64 // all aggregators, both directions, whole session
	deviceBytes int64 // all devices, both directions, whole session
	drops       int64
	rejoins     int64
	errs        []error // Serve, aggregator and device failures
}

// serve deploys the topology on loopback, runs rounds rounds and tears
// everything down. hook runs at the root after every commit.
func (f *fleet) serve(rounds int, hook func(root *fed.Server, round int, global []float64)) fleetStats {
	var st fleetStats
	width := runtime.NumCPU()
	root, err := fed.NewServer("127.0.0.1:0", f.fanouts[0], rounds)
	if err != nil {
		st.errs = append(st.errs, err)
		return st
	}
	root.Codec, root.Parallelism = f.codec, width

	var wg sync.WaitGroup
	parents := []string{root.Addr()}
	var aggs []*fed.Aggregator
	if len(f.fanouts) == 2 {
		parents = parents[:0]
		for a := 0; a < f.fanouts[0]; a++ {
			agg, err := fed.NewAggregator("127.0.0.1:0", f.fanouts[1])
			if err != nil {
				st.errs = append(st.errs, err)
				_ = root.Close() // nothing was served; the listen error is the one to report
				for _, made := range aggs {
					_ = made.Close()
				}
				return st
			}
			agg.Parent, agg.ID, agg.Uplink = root.Addr(), uint32(10_000+a), f.codec
			agg.Children.Codec, agg.Children.Parallelism = f.codec, width
			aggs = append(aggs, agg)
			parents = append(parents, agg.Addr())
		}
	}
	aggErrs := make([]error, len(aggs))
	for a, agg := range aggs {
		wg.Add(1)
		go func(a int, agg *fed.Aggregator) {
			defer wg.Done()
			if _, aggErrs[a] = agg.Run(); aggErrs[a] != nil {
				_ = root.Close() // a subtree is gone for good; make Serve give up
			}
		}(a, agg)
	}
	n := f.devices()
	devErrs := make([]error, n)
	devBytes := make([]int64, n)
	for d := 0; d < n; d++ {
		wg.Add(1)
		go func(d int, addr string) {
			defer wg.Done()
			conn, err := fed.DialCodec(addr, uint32(d), f.codec)
			if err != nil {
				devErrs[d] = err
				_ = root.Close() // the cohort can never fill; make Serve give up
				return
			}
			_, devErrs[d] = conn.Participate(f.client(d))
			devBytes[d] = conn.BytesSent() + conn.BytesReceived()
			_ = conn.Close() // the protocol is over; the server closed its end already
		}(d, parents[d*len(parents)/n])
	}

	_, err = root.Serve(f.initial, func(round int, global []float64) { hook(root, round, global) })
	if err != nil {
		// Devices parked below an aggregator only wake when it goes away.
		for _, agg := range aggs {
			_ = agg.Close()
		}
	}
	wg.Wait()

	st.errs = append(st.errs, err)
	st.errs = append(st.errs, aggErrs...)
	st.errs = append(st.errs, devErrs...)
	st.errs = slices.DeleteFunc(st.errs, func(e error) bool { return e == nil })
	st.drops, st.rejoins = root.Drops(), root.Rejoins()
	for _, agg := range aggs {
		st.uplinkBytes += agg.UplinkBytesSent() + agg.UplinkBytesReceived()
		st.drops += agg.Children.Drops()
		st.rejoins += agg.Children.Rejoins()
	}
	for _, b := range devBytes {
		st.deviceBytes += b
	}
	return st
}

// pass is one measured federation: warm untimed rounds, then timed ones.
type pass struct {
	fleetStats
	warm, rounds int
	stamps       []int64 // stamps[r] is when round r committed (hook time)
	mallocs      uint64  // heap allocations over the timed rounds
	rootBytes    int64   // root traffic, both directions, over the timed rounds
	checked      int     // output checks made
	mismatch     []int   // rounds whose global was not the expected mean
}

// measure runs warm+rounds rounds and checks the warm-up's last round, every
// checkEvery-th round and the final round against the expected mean (lossless
// codecs only).
func (f *fleet) measure(warm, rounds int) *pass {
	total := warm + rounds
	p := &pass{warm: warm, rounds: rounds, stamps: make([]int64, total+1)}
	var checks []int
	if f.codec.Lossless() {
		checks = append(checks, warm)
		for r := (warm/checkEvery + 1) * checkEvery; r < total; r += checkEvery {
			checks = append(checks, r)
		}
		if total > warm {
			checks = append(checks, total)
		}
	}
	kept := make([][]float64, len(checks))
	for i := range kept {
		kept[i] = make([]float64, numParams)
	}
	next := 0
	var bytes0 int64
	var mallocs0 uint64

	f.base = time.Now()
	p.fleetStats = f.serve(total, func(root *fed.Server, round int, global []float64) {
		if round == warm {
			bytes0, mallocs0 = root.BytesSent()+root.BytesReceived(), mallocCount()
		}
		p.stamps[round] = int64(time.Since(f.base))
		if round == total {
			p.rootBytes = root.BytesSent() + root.BytesReceived() - bytes0
			p.mallocs = mallocCount() - mallocs0
		}
		if next < len(checks) && round == checks[next] {
			copy(kept[next], global)
			next++
		}
	})

	want := make([]float64, numParams)
	for i, r := range checks[:next] {
		f.expected(want, r)
		p.checked++
		if !sameBits(kept[i], want) {
			p.mismatch = append(p.mismatch, r)
		}
	}
	return p
}

// sameBits reports whether two vectors are equal bit for bit.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// account books a pass's ops, failures and output checks into the result.
func (p *pass) account(res *result) {
	res.Attempted += int64(p.warm+p.rounds) + int64(p.checked)
	for _, err := range p.errs {
		res.fail(1, err.Error())
	}
	if committed := int64(p.warm + p.rounds); len(p.errs) == 0 && p.stamps[committed] == 0 {
		res.fail(1, "the last round never committed")
	}
	if p.drops > 0 {
		res.fail(p.drops, fmt.Sprintf("%d connections dropped", p.drops))
	}
	for _, r := range p.mismatch {
		res.fail(1, fmt.Sprintf("round %d: global is not nn.AverageParams of the round's updates", r))
	}
}

// latencies returns the hook-to-hook time of every timed round, in ns.
func (p *pass) latencies() []uint32 {
	out := make([]uint32, p.rounds)
	for i := range out {
		r := p.warm + 1 + i
		out[i] = uint32(min(p.stamps[r]-p.stamps[r-1], math.MaxUint32))
	}
	return out
}

// meanRoundUs is the timed rounds' wall-clock per round.
func (p *pass) meanRoundUs() float64 {
	return float64(p.stamps[p.warm+p.rounds]-p.stamps[p.warm]) / float64(p.rounds) / 1e3
}

// p50Us is the median timed round.
func (p *pass) p50Us() float64 {
	lat := p.latencies()
	slices.Sort(lat)
	return percentile(lat, 50) / 1e3
}

// runFleet is the fleet_flat / fleet_tree workload.
func runFleet(c *runContext, fanouts ...int) {
	sz, res := c.sizes, c.res
	perRep := sz.FlatRounds
	if len(fanouts) == 2 {
		perRep = sz.TreeRounds
	}
	rounds := perRep * sz.Reps
	if c.trace {
		rounds = sz.TraceRounds
	}

	// Set-up is everything before the first timed round: update generation,
	// listeners, joins, warm-up rounds. All but the last set-up are torn
	// down again; the last one's federation is the one measured.
	var f *fleet
	var p *pass
	setups := make([]float64, sz.SetupReps)
	for k := range setups {
		timed := 0
		if k == len(setups)-1 {
			timed = rounds
			// What the torn-down set-ups left behind is the benchmark's
			// garbage, not the system's: hand it back, or how much of it is
			// still resident decides rss_mb (13.2-16.4 MB over 20 runs of
			// fleet_tree without this).
			debug.FreeOSMemory()
		}
		began := time.Now()
		f = newFleet(c.seed, fed.DenseCodec(), fanouts...)
		p = f.measure(sz.WarmRounds, timed)
		setups[k] = f.base.Sub(began).Seconds() + float64(p.stamps[sz.WarmRounds])/1e9
		p.account(res)
	}
	res.set("setup_s", setups...)
	if len(p.errs) > 0 {
		return
	}
	// Both fleets run the same warm-up rounds, so this is where a flat and
	// a tree run of one seed can be compared.
	want := make([]float64, numParams)
	f.expected(want, sz.WarmRounds)
	res.Checksum = fmt.Sprintf("%016x", checksum(want))

	if c.trace {
		traceFleet(c, f, p)
		return
	}

	lat := p.latencies()
	rates := make([]float64, sz.Reps)
	p50 := make([]float64, sz.Reps)
	for k := range rates {
		lo := sz.WarmRounds + k*perRep
		rates[k] = float64(perRep) / (float64(p.stamps[lo+perRep]-p.stamps[lo]) / 1e9)
		seg := lat[k*perRep : (k+1)*perRep]
		slices.Sort(seg)
		p50[k] = percentile(seg, 50) / 1e3
	}
	slices.Sort(lat)
	res.set("ops_per_s", rates...)
	res.set("op_p50_us", p50...)
	res.set("fed.round_p99_us", percentile(lat, 99)/1e3)
	res.set("fed.round_p999_us", percentile(lat, 99.9)/1e3)
	res.set("fed.root_bytes_per_round", float64(p.rootBytes)/float64(rounds))
	res.set("bench.allocs_per_op", float64(p.mallocs)/float64(rounds))
	res.Ops["latency_samples"] = int64(len(lat))
}

// checksum is FNV-1a over a vector's bit patterns.
func checksum(p []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range p {
		bits := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			h = (h ^ (bits >> (8 * i) & 0xff)) * 1099511628211
		}
	}
	return h
}

// traceFleet is the traced pass of a fleet workload. untraced is a pass of
// the same length already run without device timestamps.
func traceFleet(c *runContext, f *fleet, untraced *pass) {
	sz, res := c.sizes, c.res
	n, total := f.devices(), sz.WarmRounds+sz.TraceRounds

	traced := newFleet(c.seed, f.codec, f.fanouts...)
	traced.entry, traced.exit = make([][]int64, n), make([][]int64, n)
	for d := 0; d < n; d++ {
		traced.entry[d], traced.exit[d] = make([]int64, total+1), make([]int64, total+1)
	}
	p := traced.measure(sz.WarmRounds, sz.TraceRounds)
	p.account(res)
	if len(p.errs) > 0 {
		return
	}

	// One round is three adjacent spans on its blocking path: the broadcast
	// reaching the last device, that device's callback, and its update
	// reaching the commit. The round span's own self time is what is left.
	tr := newTracer(4 * sz.TraceRounds)
	nRound := tr.name("bench.loop_other")
	nFanout := tr.name("fed.fanout")
	nClient := tr.name("bench.client")
	nCollect := tr.name("fed.collect_commit")
	for r := sz.WarmRounds + 1; r <= total; r++ {
		lastIn, lastOut := int64(0), int64(0)
		for d := 0; d < n; d++ {
			lastIn, lastOut = max(lastIn, traced.entry[d][r]), max(lastOut, traced.exit[d][r])
		}
		op := int64(r)
		root := tr.add(nRound, -1, op, p.stamps[r-1], p.stamps[r])
		tr.add(nFanout, root, op, p.stamps[r-1], lastIn)
		tr.add(nClient, root, op, lastIn, lastOut)
		tr.add(nCollect, root, op, lastOut, p.stamps[r])
	}
	// Both passes ran the same rounds, so the ratio of their wall-clocks is
	// the ratio per round.
	rows := c.finishTrace(tr, p.stamps[total]-p.stamps[sz.WarmRounds],
		untraced.stamps[total]-untraced.stamps[sz.WarmRounds])
	rounds := float64(sz.TraceRounds)
	session := float64(total) // byte counters of devices and uplinks cover the warm-up too
	lat := p.latencies()
	slices.Sort(lat)
	res.set("bench.allocs_per_op", float64(untraced.mallocs)/rounds)
	res.set("fed.fanout_us", rowByName(rows, "fed.fanout").meanSelf()/1e3)
	res.set("fed.collect_commit_us", rowByName(rows, "fed.collect_commit").meanSelf()/1e3)
	res.set("fed.round_p99_us", percentile(lat, 99)/1e3)
	res.set("fed.round_p999_us", percentile(lat, 99.9)/1e3)
	res.set("fed.root_bytes_per_round", float64(untraced.rootBytes)/rounds)
	res.set("fed.bytes_per_device_round", float64(untraced.deviceBytes)/session/float64(n))
	res.set("fed.uplink_bytes_per_round", float64(untraced.uplinkBytes)/session)
	res.set("fed.device_contribs_per_s", float64(n)/untraced.meanRoundUs()*1e6)
	res.set("fed.drops", float64(untraced.drops+p.drops))
	res.set("fed.rejoins", float64(untraced.rejoins+p.rejoins))

	// The same round at a quarter or an eighth of the devices splits its
	// cost into a fixed and a per-device part.
	small := []int{2}
	if len(f.fanouts) == 2 {
		small = []int{f.fanouts[0], 1}
	}
	few := newFleet(c.seed, f.codec, small...)
	fp := few.measure(sz.WarmRounds, sz.TraceRounds)
	fp.account(res)
	if len(fp.errs) == 0 {
		fixed, perDevice := twoPoint(float64(few.devices()), fp.p50Us(), float64(n), untraced.p50Us())
		res.set("fed.round_fixed_us", fixed)
		res.set("fed.round_per_device_us", perDevice)
	}

	// The same clients without sockets: what is left is arithmetic.
	width := runtime.NumCPU()
	global := slices.Clone(f.initial)
	start := time.Now()
	var err error
	if len(f.fanouts) == 2 {
		err = fed.RunTree(global, f.clients(), fed.Uniform(f.fanouts...),
			fed.TreeConfig{Rounds: sz.TraceRounds, Parallelism: width, Codec: f.codec})
	} else {
		err = fed.RunParallelCodec(global, f.clients(), sz.TraceRounds, width, f.codec, nil)
	}
	inproc := float64(time.Since(start).Microseconds()) / rounds
	res.Attempted += int64(sz.TraceRounds) + 1
	want := make([]float64, numParams)
	f.expected(want, sz.TraceRounds)
	if err != nil {
		res.fail(1, "in-process federation: "+err.Error())
	} else if !sameBits(global, want) {
		res.fail(1, "in-process federation ends on a different model than the expected mean")
	}
	if len(f.fanouts) == 2 {
		res.set("fed.tree_inproc_round_us", inproc)
	} else {
		res.set("fed.inproc_round_us", inproc)
		res.set("fed.socket_share", 1-inproc/untraced.meanRoundUs())
		if q8, err := fed.QuantCodec(8, c.seed); err == nil {
			for _, alt := range []struct {
				metric string
				codec  fed.Codec
			}{{"fed.codec_delta_round_us", fed.DeltaCodec()}, {"fed.codec_quant8_round_us", q8}} {
				cp := newFleet(c.seed, alt.codec, f.fanouts...).measure(sz.WarmRounds, sz.CodecRounds)
				cp.account(res)
				if len(cp.errs) == 0 {
					res.set(alt.metric, cp.p50Us())
				}
			}
		} else {
			res.fail(1, "quant8 codec: "+err.Error())
		}
	}
	probeAggregation(c, f)
	probePools(c)
}

// probeAggregation times the exact-accumulation and wire primitives a round
// is made of, at the paper's model size.
func probeAggregation(c *runContext, f *fleet) {
	acc := make([]nn.Accum, numParams)
	part := make([]nn.Accum, numParams)
	dst := make([]float64, numParams)
	params := f.updates[0]
	nn.AddParamsAccum(part, f.updates[1])
	c.probe("nn.accum_reset_us", 1e-3, func() {
		for i := range acc {
			acc[i].Reset()
		}
	})
	c.probe("nn.accum_add_params_us", 1e-3, func() { nn.AddParamsAccum(acc, params) })
	c.probe("nn.accum_mean_us", 1e-3, func() { nn.MeanAccum(dst, acc, 16) })
	var wire []byte
	c.probe("nn.encode_params_ns", 1, func() { wire = nn.EncodeParamsInto(wire, params) })
	c.probe("nn.decode_params_ns", 1, func() { dst, _ = nn.DecodeParamsInto(dst, wire) }) // wire is well-formed: just encoded
	if len(f.fanouts) < 2 {
		return
	}
	c.probe("nn.accum_merge_us", 1e-3, func() { nn.MergeAccum(acc, part) })
	var tmp nn.Accum
	c.probe("nn.accum_wire_us", 1e-3, func() {
		for i := range part {
			wire = part[i].AppendWire(wire[:0])
			_, _ = nn.DecodeAccumInto(&tmp, wire) // wire is well-formed: just appended
		}
	})
}
