package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ingrass/internal/obs"
	"ingrass/internal/obs/trace"
	"ingrass/internal/repl"
)

// Timeouts shared by the serve and route listeners. ReadHeaderTimeout
// closes a connection whose request headers do not arrive in time, so
// stalled clients cannot pin connections. IdleTimeout outlives the 90s
// keep-alive of Go's default client transport, which the router forwards
// through: the client retires an idle connection before the server closes
// it, so a forwarded write never races a server-side close.
const (
	serverReadHeaderTimeout = 5 * time.Second
	serverIdleTimeout       = 120 * time.Second
)

// newHTTPServer is the http.Server for the serve and route listeners.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: serverReadHeaderTimeout,
		IdleTimeout:       serverIdleTimeout,
	}
}

// cmdRoute runs the thin replication router: writes forward to the primary,
// reads fan out across healthy ready followers (round-robin, one retry on a
// different backend), and the primary serves reads only when no replica
// qualifies. Health is polled actively via each backend's /healthz (which
// reports role and readiness) and maintained passively by ejecting backends
// that fail a request.
//
//	ingrass route -addr :8090 -primary http://127.0.0.1:8080 \
//	       -replicas http://127.0.0.1:8081,http://127.0.0.1:8082
func cmdRoute(args []string) {
	fs := flag.NewFlagSet("route", flag.ExitOnError)
	addr := fs.String("addr", ":8090", "listen address")
	primary := fs.String("primary", "", "primary base URL — the write target (required)")
	replicas := fs.String("replicas", "", "comma-separated follower base URLs reads fan across")
	healthEvery := fs.Duration("health-every", 500*time.Millisecond, "active health-check interval")
	ejectFor := fs.Duration("eject-for", 2*time.Second, "how long a failing backend stays out of rotation")
	traceSample := fs.Float64("trace-sample", 0.01, "head-sampling probability for routed request traces (propagated to backends)")
	traceSlow := fs.Duration("trace-slow", 250*time.Millisecond, "retain any routed request trace at least this slow")
	_ = fs.Parse(args)
	if *primary == "" {
		fs.Usage()
		os.Exit(2)
	}
	var reps []string
	for _, u := range strings.Split(*replicas, ",") {
		if u = strings.TrimSpace(u); u != "" {
			reps = append(reps, strings.TrimRight(u, "/"))
		}
	}

	// The router has its own registry (it is its own process) and its own
	// trace recorder: each routed request gets a root span plus a
	// router_client span per forward attempt, and the trace ID travels to
	// the chosen backend so /debug/requests can stitch both sides.
	reg := obs.NewRegistry()
	tracer := trace.NewRecorder(trace.Options{
		SampleRate:    *traceSample,
		SlowThreshold: *traceSlow,
	})
	tracer.RegisterMetrics(reg)
	registerRuntimeMetrics(reg, time.Now())

	rt := repl.NewRouter(repl.RouterOptions{
		Primary:     strings.TrimRight(*primary, "/"),
		Replicas:    reps,
		HealthEvery: *healthEvery,
		EjectFor:    *ejectFor,
		Obs:         reg,
		Tracer:      tracer,
	})
	rt.Start()
	defer rt.Stop()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	server := newHTTPServer(*addr, rt)
	errCh := make(chan error, 1)
	go func() { errCh <- server.ListenAndServe() }()
	fmt.Printf("routing on %s: writes -> %s, reads across %d replica(s)\n",
		*addr, *primary, len(reps))

	select {
	case err := <-errCh:
		fatal(err)
	case <-ctx.Done():
		stop()
		fmt.Println("shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = server.Shutdown(shutCtx)
	}
}
