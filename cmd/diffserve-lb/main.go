// Command diffserve-lb runs the DiffServe load balancer as a
// standalone process (the artifact's start_load_balancer.sh).
//
// Workers pull batches from this process; the controller pushes
// thresholds; clients POST /query and block until completion.
//
// With -transport=tcp the process serves the same API over the raw
// framed-TCP protocol (persistent multiplexed connections) instead of
// HTTP; every peer must then dial with -transport=tcp too.
//
// With -lb-shards N the process serves N independent LB shards on
// consecutive ports (port, port+1, …, port+N-1), each owning the
// slice of query IDs that loadbalancer.ShardOf assigns it and drawing
// routing randomness from its own "lb/<shard>" stream of the shared
// seed. Peers pass the same shard list via their -shard-addrs flags:
// workers pin to one shard, the controller and client fan out across
// all of them. Run one shard per host for multi-host layouts.
//
// With -admin-port the process serves a small admin API for dynamic
// shard membership: POST /add-shard brings up one more LB shard on
// the next consecutive port and reports its address, ready to be
// joined into the ring via diffserve-controller's /add-shard RPC
// (the tier must run with matching -ring-vnodes on the frontends).
//
//	diffserve-lb -port 8100 -cascade cascade1 -slo 5 -timescale 0.1
//	diffserve-lb -port 8100 -transport tcp
//	diffserve-lb -port 8100 -lb-shards 2 -transport tcp
//	diffserve-lb -port 8100 -lb-shards 2 -admin-port 9101
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"

	"diffserve/internal/baselines"
	"diffserve/internal/cluster"
	"diffserve/internal/loadbalancer"
)

func main() {
	var (
		port      = flag.Int("port", 8100, "listen port (shard i listens on port+i)")
		shards    = flag.Int("lb-shards", 1, "number of LB shards to serve on consecutive ports")
		cascadeN  = flag.String("cascade", "cascade1", "cascade: cascade1|cascade2|cascade3")
		slo       = flag.Float64("slo", 0, "SLO seconds (0 = cascade default)")
		seed      = flag.Uint64("seed", 20250610, "shared experiment seed")
		timescale = flag.Float64("timescale", 0.1, "wall seconds per trace second")
		mode      = flag.String("mode", "cascade", "routing: cascade|all-light|all-heavy|random-split")
		transport = flag.String("transport", "http", "wire transport: http|tcp (raw framed TCP)")
		codecName = flag.String("codec", "json", "advertised HTTP wire codec: json|binary (applies to HTTP only, where the server answers each request in the codec it arrived in; -transport tcp always speaks binary)")
		lease     = flag.Float64("lease", 0, "pull-lease duration in trace seconds: a worker that pulls a batch and never completes it forfeits the queries to the expiry sweep (0 = 4x the SLO, negative disables leasing)")
		leaseRed  = flag.Int("lease-redeliveries", 0, "times an unlucky query is reclaimed and re-queued before it is shed as a drop (0 = default 3)")
		adminPort = flag.Int("admin-port", 0, "admin API port: POST /add-shard serves one more shard on the next consecutive port (0 = disabled)")
		advertise = flag.String("advertise", "", "host other processes should dial this LB's shards at; /add-shard reports addresses as <advertise>:<port> (empty: port-only, same-host layouts)")
	)
	flag.Parse()

	codec, err := cluster.CodecByName(*codecName)
	if err != nil {
		fatal(err)
	}
	if *transport == cluster.TransportTCP {
		codec = cluster.CodecBinary // what the tcp transport speaks, whatever -codec says
	}
	if *shards < 1 {
		fatal(fmt.Errorf("-lb-shards must be at least 1, got %d", *shards))
	}
	switch *transport {
	case "", "http", cluster.TransportTCP:
	default:
		fatal(fmt.Errorf("unknown -transport %q (have http, tcp)", *transport))
	}
	env, err := baselines.NewEnv(*cascadeN, *seed, 2000)
	if err != nil {
		fatal(err)
	}
	deadline := env.Spec.SLOSeconds
	if *slo > 0 {
		deadline = *slo
	}
	lbMode := map[string]loadbalancer.Mode{
		"cascade":      loadbalancer.ModeCascade,
		"all-light":    loadbalancer.ModeAllLight,
		"all-heavy":    loadbalancer.ModeAllHeavy,
		"random-split": loadbalancer.ModeRandomSplit,
	}[*mode]

	clock := cluster.NewClock(*timescale)
	fmt.Printf("diffserve-lb: %s, %d shard(s) from port %d (cascade %s, SLO %.1fs, mode %s, %s transport, %s codec)\n",
		env.Spec.Name, *shards, *port, *cascadeN, deadline, *mode, *transport, codec.Name())

	errc := make(chan error, 64)
	var serveMu sync.Mutex
	nextShard := 0
	nextPort := *port
	// bind serves lb on addr, failing synchronously when the port is
	// occupied (the admin /add-shard must not report an address that
	// never came up).
	bind := func(addr string, lb *cluster.LBServer) error {
		switch *transport {
		case "", "http":
			ln, err := net.Listen("tcp", addr)
			if err != nil {
				return err
			}
			go func(ln net.Listener, lb *cluster.LBServer) {
				errc <- http.Serve(ln, lb.Mux())
			}(ln, lb)
			return nil
		case cluster.TransportTCP:
			_, err := cluster.ServeLBTCP(addr, lb)
			return err
		}
		return fmt.Errorf("unknown -transport %q (have http, tcp)", *transport)
	}
	serveShard := func() (int, string, error) {
		serveMu.Lock()
		defer serveMu.Unlock()
		i := nextShard
		cfg := cluster.LBConfig{
			Mode: lbMode, SLO: deadline,
			LightMinExec: env.Light.Latency.Latency(1) + env.Scorer.PerImageLatency(),
			HeavyMinExec: env.Heavy.Latency.Latency(1),
			Clock:        clock, Seed: *seed,
			RNGStream:     fmt.Sprintf("lb/%d", i),
			LeaseDuration: *lease, LeaseRedeliveries: *leaseRed,
		}
		if *shards == 1 && i == 0 {
			cfg.RNGStream = "" // classic single-LB stream name
		}
		lb := cluster.NewLBServer(cfg)
		// Consecutive port allocation can land on a port another
		// process already holds — long-lived admin APIs add shards far
		// from the initial block. Skip occupied ports (each port is
		// tried once; the cursor never moves backwards) instead of
		// failing the add and re-failing on the same port forever.
		const maxPortTries = 64
		var lastErr error
		for try := 0; try < maxPortTries; try++ {
			addr := fmt.Sprintf(":%d", nextPort)
			nextPort++
			if err := bind(addr, lb); err != nil {
				lastErr = err
				fmt.Printf("diffserve-lb: shard %d: port %s occupied, trying next (%v)\n", i, addr, err)
				continue
			}
			nextShard++
			fmt.Printf("diffserve-lb: shard %d on %s\n", i, addr)
			// Report a dialable address: ":port" only resolves to the
			// right machine when the dialer shares this host, so
			// multi-host layouts set -advertise.
			return i, *advertise + addr, nil
		}
		return 0, "", fmt.Errorf("no bindable port for shard %d in [%d, %d): last error: %w",
			i, nextPort-maxPortTries, nextPort, lastErr)
	}
	for i := 0; i < *shards; i++ {
		if _, _, err := serveShard(); err != nil {
			fatal(err)
		}
	}
	if *adminPort > 0 {
		mux := http.NewServeMux()
		mux.HandleFunc("/add-shard", func(w http.ResponseWriter, r *http.Request) {
			shard, addr, err := serveShard()
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			json.NewEncoder(w).Encode(map[string]interface{}{"shard": shard, "addr": addr})
		})
		go func() {
			errc <- http.ListenAndServe(fmt.Sprintf(":%d", *adminPort), mux)
		}()
		fmt.Printf("diffserve-lb: admin API on :%d\n", *adminPort)
	}
	// Serve until the process is killed or an HTTP listener fails.
	if err := <-errc; err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "diffserve-lb:", err)
	os.Exit(1)
}
