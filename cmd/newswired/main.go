// Command newswired runs one live NewsWire node over TCP: it joins a
// cluster through seed peers, subscribes to subjects, and prints every
// delivered news item — the downloadable participant application of
// paper §8.
//
// Start a first node:
//
//	newswired -listen 127.0.0.1:9001 -zone /usa/ny -subscribe tech/linux
//
// Join more nodes to it:
//
//	newswired -listen 127.0.0.1:9002 -zone /usa/ny -peers 127.0.0.1:9001 \
//	    -subscribe tech/linux,tech/security
//
// Observability: -http serves the status interface (status.json,
// metrics, trace.json, cluster-health.json); -log-json switches the
// structured log to one-JSON-object-per-line for log shippers; -pprof
// adds the net/http/pprof profiling endpoints to the same mux (see
// DESIGN.md §12 for the profiling workflow).
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"newswire"
	"newswire/internal/news"
	"newswire/internal/transport"
	"newswire/internal/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "newswired:", err)
		os.Exit(1)
	}
}

// newLogger builds the process logger: text for humans, JSON for log
// shippers, leveled by -log-level.
func newLogger(jsonOut bool, level string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q (want debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	var h slog.Handler
	if jsonOut {
		h = slog.NewJSONHandler(os.Stderr, opts)
	} else {
		h = slog.NewTextHandler(os.Stderr, opts)
	}
	return slog.New(h), nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("newswired", flag.ContinueOnError)
	var (
		listen    = fs.String("listen", "127.0.0.1:0", "TCP listen address")
		zone      = fs.String("zone", "/default", "leaf zone path, e.g. /usa/ny")
		name      = fs.String("name", "", "node name (default derived from address)")
		peers     = fs.String("peers", "", "comma-separated seed peer addresses")
		mode      = fs.String("mode", "", "subscription-summary mode: bloom (default), attributes or predicate")
		subscribe = fs.String("subscribe", "", "comma-separated subscription subjects")
		queryStr  = fs.String("query", "", "typed predicate subscription, e.g. \"subjects = 'tech/linux' AND urgency >= 6\" or, per publisher, \"publisher = 'slashdot' AND subjects IN ('tech/linux')\" (requires -mode predicate; repeatable via ';')")
		predicate = fs.String("predicate", "", "SQL selection predicate over item metadata")
		interval  = fs.Duration("interval", 2*time.Second, "gossip interval")
		httpAddr  = fs.String("http", "", "serve the status web interface on this address (e.g. 127.0.0.1:8080)")
		syncWr    = fs.Bool("sync-transport", false, "use the legacy synchronous transport writes (ablation; one mutex serializes all peers)")
		queueLen  = fs.Int("send-queue", 0, "per-peer outbound queue length in frames (0 = default)")
		logJSON   = fs.Bool("log-json", false, "emit structured logs as JSON lines instead of text")
		logLevel  = fs.String("log-level", "info", "minimum log level: debug, info, warn or error")
		pprofOn   = fs.Bool("pprof", false, "expose net/http/pprof on the -http mux (operator opt-in; see DESIGN.md §12)")
		healthEv  = fs.Int("health-every", 0, "publish the health digest every N gossip ticks (0 = default cadence, negative = disable)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	logger, err := newLogger(*logJSON, *logLevel)
	if err != nil {
		return err
	}

	summaryMode, err := newswire.ParseMode(*mode)
	if err != nil {
		return err
	}
	if *queryStr != "" && summaryMode != newswire.ModePredicate {
		return fmt.Errorf("-query requires -mode predicate")
	}

	cfg := newswire.LiveConfig{
		ListenAddr: *listen,
		Transport: transport.TCPOptions{
			SyncWrites: *syncWr,
			QueueLen:   *queueLen,
		},
		Node: newswire.Config{
			Name:           *name,
			ZonePath:       *zone,
			Mode:           summaryMode,
			GossipInterval: *interval,
			OnItem: func(it *news.Item, env *wire.ItemEnvelope) {
				logger.Info("item delivered",
					"key", it.Key(),
					"revision", it.Revision,
					"subjects", strings.Join(it.Subjects, ","),
					"headline", it.Headline,
					"published", it.Published.Format(time.RFC3339))
			},
			// Every delivery failure is logged with the item's trace ID, so
			// the operator can pull the matching hop-by-hop spans from
			// /trace.json?trace=<id> across the whole cluster.
			OnDeliveryFailure: func(key string, traceID uint64, zone, to string, attempts int) {
				logger.Error("delivery failure",
					"key", key,
					"trace", fmt.Sprintf("%#x", traceID),
					"zone", zone,
					"to", to,
					"attempts", attempts)
			},
		},
	}
	if *healthEv > 0 {
		cfg.Node.HealthEvery = *healthEv
	} else if *healthEv < 0 {
		cfg.DisableHealth = true
	}
	if *peers != "" {
		cfg.Peers = strings.Split(*peers, ",")
	}

	ln, err := newswire.StartLive(cfg)
	if err != nil {
		return err
	}
	defer ln.Close()
	logger.Info("listening", "addr", ln.Addr(), "zone", *zone)

	if *subscribe != "" {
		subjects := strings.Split(*subscribe, ",")
		if err := ln.Node().Subscribe(subjects...); err != nil {
			return err
		}
		logger.Info("subscribed", "subjects", *subscribe)
	}
	if *queryStr != "" {
		for _, q := range strings.Split(*queryStr, ";") {
			q = strings.TrimSpace(q)
			if q == "" {
				continue
			}
			canon, err := ln.Node().SubscribeQuery(q)
			if err != nil {
				return err
			}
			logger.Info("query subscribed", "query", canon)
		}
	}
	if *predicate != "" {
		if err := ln.Node().SetPredicate(*predicate); err != nil {
			return err
		}
		logger.Info("predicate installed", "predicate", *predicate)
	}

	if *httpAddr != "" {
		ui := ln.WebUI()
		if *pprofOn {
			ui.EnablePprof()
		}
		srv := &http.Server{Addr: *httpAddr, Handler: ui.Handler()}
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logger.Error("web interface", "err", err)
			}
		}()
		defer srv.Close()
		logger.Info("web interface up", "url", "http://"+*httpAddr+"/",
			"endpoints", "status.json items.json zones.json trace.json cluster-health.json metrics",
			"pprof", *pprofOn)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	logger.Info("shutting down")
	return nil
}
