package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"

	"asc/internal/binfmt"
	"asc/internal/core"
	"asc/internal/installer"
	"asc/internal/kernel"
	"asc/internal/libc"
	anet "asc/internal/net"
	"asc/internal/vfs"
	"asc/internal/workload"
)

// maxCycles bounds every simulated process; no workload comes near it.
const maxCycles = 4_000_000_000

// stats is everything one job's simulation reports. The model is
// deterministic, so every job of a workload, traced or not, must report
// the same values as the warm-up job that sets the reference.
type stats struct {
	Cycles   uint64 // simulated cycles, summed over the job's processes
	Syscalls uint64
	Verified uint64 // authenticated calls checked
	Spawns   uint64
	Cache    kernel.CacheStats
	Faults   uint64 // paged workloads only
	Evicts   uint64
	Swapins  uint64
}

// instance is one set-up workload, ready to run jobs.
type instance struct {
	// job runs one job, checks its outputs and returns its statistics.
	job func(tr *tracer) (stats, error)
	// unauth runs the same work with installer.Optimize binaries on a
	// permissive kernel and returns its cycles and system calls.
	unauth func() (cycles, syscalls uint64, err error)
	// newKernel and exes let the traced run time kernel construction
	// and Spawn where the workload reaches them only inside a library
	// call (core.RunAll).
	newKernel func() (*kernel.Kernel, error)
	exes      []*binfmt.File
	// sites is the installer's system call site count over the
	// workload's binaries.
	sites int
}

type workloadDef struct {
	name  string
	setup func(seed uint64, tr *tracer) (*instance, error)
}

var workloads = []workloadDef{
	{"syscall_storm", setupStorm},
	{"kv_fleet", setupFleet},
	{"paged_thrash", setupPaged},
}

// seededBytes returns n bytes drawn from the seed; stream separates
// independent inputs of one seed.
func seededBytes(seed, stream uint64, n int) []byte {
	r := rand.New(rand.NewPCG(seed, stream))
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(r.Uint32())
	}
	return b
}

// seededKey is the installer/kernel MAC key for a seed. Every MAC in
// the installed binaries depends on it; the simulated costs do not.
func seededKey(seed uint64) []byte { return seededBytes(seed, 1, 16) }

// buildInstall assembles and links source, then installs it.
func buildInstall(tr *tracer, name, src string, key []byte) (raw, auth *binfmt.File, sites int, err error) {
	if err = tr.call("workload.BuildSource", func() error {
		raw, err = workload.BuildSource(name, src, libc.Linux)
		return err
	}); err != nil {
		return nil, nil, 0, err
	}
	err = tr.call("installer.Install", func() error {
		var rep *installer.Report
		auth, _, rep, err = installer.Install(raw, name, installer.Options{Key: key})
		if err == nil {
			sites = rep.Sites
		}
		return err
	})
	if err != nil {
		return nil, nil, 0, fmt.Errorf("install %s: %w", name, err)
	}
	return raw, auth, sites, nil
}

// newFS builds a filesystem with the standard directory tree.
func newFS() (*vfs.FS, error) {
	fs := vfs.New()
	for _, d := range []string{"/bin", "/etc", "/tmp", "/data", "/var/run", "/work"} {
		if err := fs.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	return fs, nil
}

// runProc spawns exe on k and runs it to completion; a process that is
// killed or exits nonzero is an error.
func runProc(tr *tracer, k *kernel.Kernel, exe *binfmt.File, name string) (*kernel.Process, error) {
	var p *kernel.Process
	if err := tr.call("kernel.Spawn", func() (err error) {
		p, err = k.Spawn(exe, name)
		return err
	}); err != nil {
		return nil, err
	}
	if err := tr.call("kernel.Run", func() error { return k.Run(p, maxCycles) }); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if p.Killed {
		return nil, fmt.Errorf("%s killed: %s", name, p.KilledBy)
	}
	if p.Code != 0 {
		return nil, fmt.Errorf("%s exit=%d", name, p.Code)
	}
	return p, nil
}

func procStats(p *kernel.Process) stats {
	st := stats{
		Cycles:   p.CPU.Cycles,
		Syscalls: p.SyscallCount,
		Verified: p.VerifyCount,
		Spawns:   1,
		Cache:    p.CacheStats(),
	}
	st.Faults, st.Evicts, st.Swapins = p.PageStats()
	return st
}

// --- syscall_storm -----------------------------------------------------

// stormIters iterations of the six-call loop give 96k system calls per
// job, long enough to span several GC cycles (shorter jobs were
// bimodal on whether a collection landed inside them).
const stormIters = 16000

var stormSpec = workload.PerfSpec{
	Name:  "storm",
	Iters: stormIters,
	Calls: []workload.PerfCall{
		{Name: "getpid"}, {Name: "open"}, {Name: "pread", Size: 4096},
		{Name: "close"}, {Name: "write", Size: 4096}, {Name: "lseek"},
	},
}

// stormCalls is the closed-form call count: two opens before the
// loop, six calls per iteration, and exit.
const stormCalls = 2 + 6*stormIters + 1

func setupStorm(seed uint64, tr *tracer) (*instance, error) {
	key := seededKey(seed)
	raw, auth, sites, err := buildInstall(tr, "storm", stormSpec.Source(0), key)
	if err != nil {
		return nil, err
	}
	// The loop preads the first 4 KiB of the input and writes them to
	// the output, rewinding each time: the output must equal them.
	input := seededBytes(seed, 2, 8192)
	fs, err := newFS()
	if err != nil {
		return nil, err
	}
	if err := fs.WriteFile("/data/storm.in", input, 0o644); err != nil {
		return nil, err
	}
	newKernel := func() (*kernel.Kernel, error) { return kernel.New(fs, key, kernel.WithMode(kernel.Enforce)) }
	run := func(tr *tracer, k *kernel.Kernel, exe *binfmt.File) (stats, error) {
		_ = fs.Unlink("/tmp/storm.out") // absent before the first job
		p, err := runProc(tr, k, exe, "storm")
		if err != nil {
			return stats{}, err
		}
		out, err := fs.ReadFile("/tmp/storm.out")
		if err != nil {
			return stats{}, err
		}
		if !bytes.Equal(out, input[:4096]) {
			return stats{}, fmt.Errorf("storm output is not the first 4 KiB of its input")
		}
		if p.SyscallCount != stormCalls {
			return stats{}, fmt.Errorf("storm made %d system calls, want %d", p.SyscallCount, stormCalls)
		}
		return procStats(p), nil
	}
	return &instance{
		job: func(tr *tracer) (stats, error) {
			var k *kernel.Kernel
			if err := tr.call("kernel.New", func() (err error) { k, err = newKernel(); return err }); err != nil {
				return stats{}, err
			}
			return run(tr, k, auth)
		},
		unauth: func() (uint64, uint64, error) {
			plain, err := installer.Optimize(raw)
			if err != nil {
				return 0, 0, err
			}
			k, err := kernel.New(fs, nil, kernel.WithMode(kernel.Permissive))
			if err != nil {
				return 0, 0, err
			}
			st, err := run(nil, k, plain)
			return st.Cycles, st.Syscalls, err
		},
		newKernel: newKernel,
		exes:      []*binfmt.File{auth},
		sites:     sites,
	}, nil
}

// --- kv_fleet ----------------------------------------------------------

// The sharded KV fleet of bench.Net's shard arm: two poll-loop replicas
// and eight load-balancing clients under core.RunAll.
const (
	fleetReplicas = 2
	fleetClients  = 8
	fleetIters    = 2
	fleetWorkers  = 2
	fleetBatch    = 8
)

func setupFleet(seed uint64, tr *tracer) (*instance, error) {
	key := seededKey(seed)
	routes := workload.ShardMap(fleetReplicas)
	slotsOf := make([]int, fleetReplicas)
	for _, r := range routes {
		slotsOf[r]++
	}
	type prog struct {
		name      string
		raw, auth *binfmt.File
		count     int
	}
	var progs []prog
	sites := 0
	for r := 0; r < fleetReplicas; r++ {
		name := fmt.Sprintf("netreplica%d", r)
		src := workload.NetReplicaSource(workload.NetShardPortBase+uint16(r), fleetClients, workload.NetShardRounds(fleetIters, slotsOf[r]))
		raw, auth, n, err := buildInstall(tr, name, src, key)
		if err != nil {
			return nil, err
		}
		progs = append(progs, prog{name, raw, auth, 1})
		sites += n
	}
	raw, auth, n, err := buildInstall(tr, "netlbclient", workload.NetLBClientSource(fleetIters, fleetReplicas, routes), key)
	if err != nil {
		return nil, err
	}
	progs = append(progs, prog{"netlbclient", raw, auth, fleetClients})
	sites += n

	requests := func(plain bool) ([]core.RunRequest, error) {
		var reqs []core.RunRequest
		for _, p := range progs {
			exe := p.auth
			if plain {
				opt, err := installer.Optimize(p.raw)
				if err != nil {
					return nil, err
				}
				exe = opt
			}
			for i := 0; i < p.count; i++ {
				reqs = append(reqs, core.RunRequest{Exe: exe, Name: p.name})
			}
		}
		return reqs, nil
	}
	reqs, err := requests(false)
	if err != nil {
		return nil, err
	}
	config := func(plain bool) core.Config {
		if plain {
			return core.Config{Permissive: true, KernelOptions: []kernel.Option{kernel.WithNetwork(anet.New())}}
		}
		return core.Config{Key: key, KernelOptions: []kernel.Option{
			kernel.WithNetwork(anet.New()),
			kernel.WithCacheMode(kernel.CachePerProcess),
			kernel.WithBatchVerify(fleetBatch),
		}}
	}
	run := func(tr *tracer, cfg core.Config, reqs []core.RunRequest) (stats, error) {
		var sys *core.System
		if err := tr.call("core.NewSystem", func() (err error) { sys, err = core.NewSystem(cfg); return err }); err != nil {
			return stats{}, err
		}
		var res []core.ProcResult
		if err := tr.call("core.RunAll", func() (err error) { res, err = sys.RunAll(reqs, fleetWorkers); return err }); err != nil {
			return stats{}, err
		}
		var st stats
		for i, r := range res {
			switch {
			case r.Err != nil:
				return stats{}, fmt.Errorf("%s: %w", reqs[i].Name, r.Err)
			case r.Killed:
				return stats{}, fmt.Errorf("%s killed: %s", reqs[i].Name, r.Reason)
			case r.ExitCode != 0:
				return stats{}, fmt.Errorf("%s exit=%d", reqs[i].Name, r.ExitCode)
			}
			want := workload.NetShardClientOutput(fleetIters)
			if i < fleetReplicas {
				want = workload.NetShardServerOutput(fleetClients, fleetIters, slotsOf[i])
			}
			if r.Output != want {
				return stats{}, fmt.Errorf("%s output %q, want %q", reqs[i].Name, r.Output, want)
			}
			st.Cycles += r.Cycles
			st.Syscalls += r.Syscalls
			st.Verified += r.Verified
			st.Spawns++
			st.Cache.Hits += r.Cache.Hits
			st.Cache.Misses += r.Cache.Misses
			st.Cache.Invalidations += r.Cache.Invalidations
			st.Cache.Shares += r.Cache.Shares
		}
		return st, nil
	}
	return &instance{
		job: func(tr *tracer) (stats, error) { return run(tr, config(false), reqs) },
		unauth: func() (uint64, uint64, error) {
			plain, err := requests(true)
			if err != nil {
				return 0, 0, err
			}
			st, err := run(nil, config(true), plain)
			return st.Cycles, st.Syscalls, err
		},
		newKernel: func() (*kernel.Kernel, error) {
			sys, err := core.NewSystem(config(false))
			if err != nil {
				return nil, err
			}
			return sys.Kernel, nil
		},
		exes:  []*binfmt.File{progs[0].auth, progs[1].auth, auth},
		sites: sites,
	}, nil
}

// --- paged_thrash ------------------------------------------------------

// A 128-page working set walked over a 16-page resident budget: every
// access after the first sweep is a sealed swap-in.
const (
	pagedWS     = 128
	pagedBudget = 16
	pagedSweeps = 8
)

// pagedSource walks the mmap'd working set like bench.Mem's sweep, but
// each page stores a seed-derived value and the next sweep checks it,
// so a page that comes back from the swap device wrong exits 3.
const pagedSource = `
        .text
        .global main
main:
        MOVI r1, 0
        MOVI r2, %[1]d
        MOVI r3, 3              ; PROT_READ|PROT_WRITE
        MOVI r4, 0x22           ; MAP_PRIVATE|MAP_ANONYMOUS
        MOVI r5, 0
        CALL mmap
        MOV r8, r0
        MOVI r9, 0
        BLT r8, r9, .fail
        MOVI r7, %[2]d          ; per-sweep increment
        MOVI r13, 0             ; value every page holds before this sweep
        MOVI r12, %[3]d
.sweep:
        ADD r15, r13, r7        ; value this sweep stores
        MOV r10, r8
        MOVI r11, %[4]d
.page:
        LOAD r9, [r10+0]
        BNE r9, r13, .fail
        STORE [r10+0], r15
        ADDI r10, r10, 4096
        ADDI r11, r11, -1
        MOVI r9, 0
        BNE r11, r9, .page
        MOV r13, r15
        ADDI r12, r12, -1
        MOVI r9, 0
        BNE r12, r9, .sweep
        MOV r1, r8
        MOVI r2, %[1]d
        CALL munmap
        MOVI r0, 0
        RET
.fail:
        MOVI r0, 3
        RET
`

func setupPaged(seed uint64, tr *tracer) (*instance, error) {
	key := seededKey(seed)
	step := 1 + rand.New(rand.NewPCG(seed, 3)).IntN(1<<30)
	src := fmt.Sprintf(pagedSource, pagedWS*4096, step, pagedSweeps, pagedWS)
	raw, auth, sites, err := buildInstall(tr, "thrash", src, key)
	if err != nil {
		return nil, err
	}
	fs, err := newFS()
	if err != nil {
		return nil, err
	}
	newKernel := func(key []byte, mode kernel.Mode) (*kernel.Kernel, error) {
		return kernel.New(fs, key, kernel.WithMode(mode), kernel.WithPagedMemory(pagedBudget))
	}
	// Closed forms of a sequential walk over more pages than the
	// budget: every touch faults, the first sweep's faults are fresh
	// pages, and only the budget stays resident at the end.
	run := func(tr *tracer, k *kernel.Kernel, exe *binfmt.File) (stats, error) {
		p, err := runProc(tr, k, exe, "thrash")
		if err != nil {
			return stats{}, err
		}
		st := procStats(p)
		if st.Faults != pagedWS*pagedSweeps || st.Evicts != pagedWS*pagedSweeps-pagedBudget || st.Swapins != pagedWS*(pagedSweeps-1) {
			return stats{}, fmt.Errorf("thrash paging %d faults %d evicts %d swap-ins, want %d %d %d",
				st.Faults, st.Evicts, st.Swapins,
				pagedWS*pagedSweeps, pagedWS*pagedSweeps-pagedBudget, pagedWS*(pagedSweeps-1))
		}
		return st, nil
	}
	return &instance{
		job: func(tr *tracer) (stats, error) {
			var k *kernel.Kernel
			if err := tr.call("kernel.New", func() (err error) { k, err = newKernel(key, kernel.Enforce); return err }); err != nil {
				return stats{}, err
			}
			return run(tr, k, auth)
		},
		unauth: func() (uint64, uint64, error) {
			plain, err := installer.Optimize(raw)
			if err != nil {
				return 0, 0, err
			}
			// A nil key makes the swap frames plain, the unauthenticated
			// device.
			k, err := newKernel(nil, kernel.Permissive)
			if err != nil {
				return 0, 0, err
			}
			st, err := run(nil, k, plain)
			return st.Cycles, st.Syscalls, err
		},
		newKernel: func() (*kernel.Kernel, error) { return newKernel(key, kernel.Enforce) },
		exes:      []*binfmt.File{auth},
		sites:     sites,
	}, nil
}
