package main

import (
	"fmt"
	"time"

	"asc/internal/binfmt"
	"asc/internal/ckpt"
	"asc/internal/kernel"
	"asc/internal/mac"
	anet "asc/internal/net"
	"asc/internal/policy"
	"asc/internal/vfs"
	"asc/internal/vm"
)

// sink keeps the reference loop's result live.
var sink uint64

// refLoop times a fixed pure-Go loop that touches none of the program:
// when it moves between runs, the host moved. Median of five, in ms.
func refLoop() float64 {
	v := make([]float64, 5)
	for i := range v {
		t0 := time.Now()
		x := uint64(i)
		for j := 0; j < 4_000_000; j++ {
			x = x*6364136223846793005 + 1442695040888963407
			x ^= x >> 29
		}
		sink += x
		v[i] = ms(time.Since(t0))
	}
	return quantile(v, 0.5)
}

// probe times rounds of n calls of f and returns the median time per
// call.
func probe(n int, f func() error) (time.Duration, error) {
	const rounds = 7
	v := make([]float64, rounds)
	for r := range v {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := f(); err != nil {
				return 0, err
			}
		}
		v[r] = float64(time.Since(t0)) / float64(n)
	}
	return time.Duration(quantile(v, 0.5)), nil
}

// layerProbes times public functions of the layers under the trap path
// and the pager, outside any job. Values are per call.
func layerProbes(key []byte) (map[string]time.Duration, error) {
	k, err := mac.New(key)
	if err != nil {
		return nil, err
	}
	// An open-sized call encoding: one authenticated path and two
	// constant arguments.
	enc := (&policy.CallEncoding{
		Num: 5, Site: 0x1040, BlockID: 7, LbPtr: 0x3000,
		Args: []policy.EncodedArg{{Index: 0, IsString: true, Value: 0x2000, Len: 16}, {Index: 1}, {Index: 2}},
	}).Bytes()
	rec := (&policy.AuthRecord{BlockID: 7, PredSetPtr: 0x2100, LbPtr: 0x3000}).Encode()
	page := seededBytes(0, 4, 4096)
	frame := &ckpt.SwapFrame{Owner: 1, Page: 3, Gen: 2, Data: page}
	sealed := ckpt.SealSwapFrame(k, frame)
	fs := vfs.New()
	network := anet.New()
	request := []byte("GET 3\n")

	probes := []struct {
		name string
		n    int
		f    func() error
	}{
		{"mac.sum", 20000, func() error { _, _ = k.Sum(enc); return nil }},
		{"policy.decode_record", 100000, func() error { _, err := policy.DecodeAuthRecord(rec); return err }},
		{"vm.new_memory", 10, func() error { vm.NewMemory(binfmt.TextBase, kernel.DefaultMemSize); return nil }},
		{"ckpt.swap_seal", 2000, func() error { ckpt.SealSwapFrame(k, frame); return nil }},
		{"ckpt.swap_open", 2000, func() error {
			_, err := ckpt.OpenSwapFrame(k, frame.Owner, frame.Page, frame.Gen, sealed)
			return err
		}},
		{"vfs.write_read", 2000, func() error {
			if err := fs.WriteFile("/probe", page, 0o644); err != nil {
				return err
			}
			_, err := fs.ReadFile("/probe")
			return err
		}},
		{"net.roundtrip", 20000, func() error {
			a, b := network.Pair()
			defer a.Close()
			defer b.Close()
			if err := a.Send(request, nil); err != nil {
				return err
			}
			got, err := b.Recv(nil)
			if err == nil && string(got) != string(request) {
				err = fmt.Errorf("net probe received %q", got)
			}
			return err
		}},
	}
	out := make(map[string]time.Duration, len(probes))
	for _, p := range probes {
		d, err := probe(p.n, p.f)
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", p.name, err)
		}
		out[p.name] = d
	}
	return out, nil
}

// spawnProbe times kernel construction and Spawn of the workload's
// binaries, for workloads that reach them only inside a library call.
// Each round uses a fresh kernel so spawned images do not pile up.
func spawnProbe(inst *instance) (newKernel, spawn time.Duration, err error) {
	var kv, sv []float64
	for r := 0; r < 7; r++ {
		t0 := time.Now()
		k, err := inst.newKernel()
		if err != nil {
			return 0, 0, err
		}
		kv = append(kv, float64(time.Since(t0)))
		for _, exe := range inst.exes {
			t0 := time.Now()
			if _, err := k.Spawn(exe, "probe"); err != nil {
				return 0, 0, err
			}
			sv = append(sv, float64(time.Since(t0)))
		}
	}
	return time.Duration(quantile(kv, 0.5)), time.Duration(quantile(sv, 0.5)), nil
}
