// Command gpusimd is the simulation job server: it accepts campaign and
// workload submissions over the versioned /v1 HTTP API, executes them
// through the experiment pipeline, and persists every result in a durable
// store so no client ever pays for the same simulation twice. The run
// manifest survives restarts — interrupted jobs resume with their
// completed simulations served from the store.
//
// Usage:
//
//	gpusimd -addr 127.0.0.1:8080 -store /var/lib/gpusimd
//	gpusimd -addr 127.0.0.1:0 -addrfile /tmp/gpusimd.addr   # scripts
//	gpusim submit -server http://127.0.0.1:8080 -campaign sweep.yaml -wait
//
// -store "" runs fully in memory (nothing survives exit). -addrfile
// writes the server's reachable base URL after the listener binds, so
// scripts using -addr :0 can discover the port. See DESIGN.md section 16.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"gpummu/internal/service"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free one)")
		store    = flag.String("store", "", "state directory for the durable store, manifest and reports; empty = in-memory")
		addrFile = flag.String("addrfile", "", "write the server's base URL to this file once the listener is bound")
		workers  = flag.Int("j", runtime.GOMAXPROCS(0), "default simulation workers for campaigns that don't set run.workers")
		timeout  = flag.Duration("jobtimeout", 0, "wall-clock budget per job when the campaign sets no obs.deadline (0 = unbounded); enforced even while a job waits for simulation slots")
		jobs     = flag.Int("jobs", 0, "jobs executing concurrently (0 = GOMAXPROCS-aware default); reports are byte-identical for any value")
		slots    = flag.Int("slots", 0, "global simulation-slot budget shared by all in-flight jobs (0 = the -j value), so jobs x workers never oversubscribes the host")
	)
	flag.Parse()

	srv, err := service.NewServer(service.Options{
		Dir:        *store,
		Workers:    *workers,
		JobTimeout: *timeout,
		Jobs:       *jobs,
		Slots:      *slots,
	})
	if err != nil {
		fatal("%v", err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal("%v", err)
	}
	base := fmt.Sprintf("http://%s", ln.Addr())
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(base+"\n"), 0o644); err != nil {
			fatal("-addrfile: %v", err)
		}
	}
	fmt.Fprintf(os.Stderr, "gpusimd: listening on %s (store %q)\n", base, *store)

	hs := &http.Server{Handler: srv}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "gpusimd: %v, shutting down\n", s)
	case err := <-done:
		if err != nil && err != http.ErrServerClosed {
			fatal("%v", err)
		}
	}
	// Stop accepting requests, then let the current job finish journalling
	// before the store closes. Interrupted pending jobs resume on restart.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	hs.Shutdown(shutdownCtx)
	if err := srv.Close(); err != nil {
		fatal("%v", err)
	}
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "gpusimd: "+format+"\n", args...)
	os.Exit(1)
}
