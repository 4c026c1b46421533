// Package relay is the regional tier of the collector fabric: a process
// that accepts edge exporters' sequenced update batches exactly like the
// global monitor daemon, folds them into a regional sketch for local
// queries, and re-exports every accepted batch upward through its own
// replay session — edge → regional → global fan-in with exactly-once
// application at every hop, riding on sketch linearity (regional and
// global folds of the same traffic merge to identical counters).
//
// The hop-by-hop exactly-once argument: the server's Forward tap runs
// under the server mutex, atomically with the dedup check and the replay-
// horizon advance, so a batch is spooled upstream before its downstream
// ack is written — "acked downstream implies spooled upstream". Upstream,
// the exporter's session sequence numbers and the global server's dedup
// table de-duplicate retransmissions exactly as they do for edges. A
// crash between ack and upstream delivery is covered by the crash-safe
// snapshot: SnapshotState captures the session horizons and the upstream
// spool under the same server mutex, so a restored relay retransmits
// precisely the batches it had acked but not yet delivered.
package relay

import (
	"errors"
	"fmt"
	"net"
	"time"

	"dcsketch/internal/dcs"
	"dcsketch/internal/export"
	"dcsketch/internal/monitor"
	"dcsketch/internal/server"
	"dcsketch/internal/snapshot"
	"dcsketch/internal/telemetry"
	"dcsketch/internal/tracelog"
)

// Config parametrizes a Relay. Upstream is required.
type Config struct {
	// Upstream is the global collector's address.
	Upstream string
	// UpstreamDial overrides the upstream transport (the fault-injection
	// seam); nil means TCP.
	UpstreamDial func(addr string, timeout time.Duration) (net.Conn, error)
	// Monitor configures the regional detection state. The sketch config
	// (dimensions and seed) must match the fleet's: regional and global
	// sketches merge only when built identically.
	Monitor monitor.Config
	// MaxConns and MaxSessions mirror server.Config.
	MaxConns    int
	MaxSessions int
	// SpoolBatches bounds the upstream spool (export.Config.SpoolBatches).
	SpoolBatches int
	// SessionID identifies the relay's upstream replay session; 0 draws a
	// random one. A restored snapshot carries the session with its spool,
	// so a restarted relay resumes its replay horizon at the global tier.
	// Pinning an ID without a restored spool is unsafe here (see
	// export.Config.SessionID): the new incarnation numbers whatever its
	// edges send from 1 again, and the global tier acks its first H
	// batches as already applied.
	SessionID uint64
	// Seed drives upstream backoff jitter (export.Config.Seed).
	Seed uint64
	// Trace receives flight-recorder events from both halves — the server
	// side of each downstream session and the exporter side of the upstream
	// one — so a batch's full story through this hop reads from one
	// recorder. Nil allocates one private recorder for both halves.
	Trace *tracelog.Recorder
	// Restore seeds the relay from a crash-safe snapshot captured by
	// SnapshotState: sketch, profiles, and downstream replay horizons into
	// the server; upstream session and unacked spool into the exporter.
	Restore *snapshot.State
}

// Relay glues a downstream server to an upstream exporter.
type Relay struct {
	srv *server.Server
	exp *export.Exporter
}

// New builds a relay. The upstream delivery loop starts immediately;
// downstream listening starts with Listen/Serve.
func New(cfg Config) (*Relay, error) {
	if cfg.Upstream == "" {
		return nil, errors.New("relay: Upstream required")
	}
	if cfg.Trace == nil {
		cfg.Trace = tracelog.New(tracelog.Options{})
	}
	ecfg := export.Config{
		Addr:         cfg.Upstream,
		Dial:         cfg.UpstreamDial,
		SpoolBatches: cfg.SpoolBatches,
		SessionID:    cfg.SessionID,
		Seed:         cfg.Seed,
		Trace:        cfg.Trace,
	}
	if cfg.Restore != nil {
		ecfg.Restore = cfg.Restore.Spool
	}
	exp, err := export.New(ecfg)
	if err != nil {
		return nil, fmt.Errorf("relay: upstream exporter: %w", err)
	}
	srv, err := server.New(server.Config{
		Monitor:     cfg.Monitor,
		MaxConns:    cfg.MaxConns,
		MaxSessions: cfg.MaxSessions,
		Trace:       cfg.Trace,
		// The upstream tap. Export never blocks on the network (it spools,
		// shedding its own oldest batch past the bound), so holding the
		// server mutex across it costs one encode. Its only error is
		// ErrClosed during shutdown, which aborts the batch unacked — the
		// edge retransmits to the next incarnation.
		Forward: exp.Export,
	})
	if err != nil {
		exp.Close()
		return nil, fmt.Errorf("relay: server: %w", err)
	}
	if cfg.Restore != nil {
		if err := srv.RestoreState(cfg.Restore); err != nil {
			exp.Close()
			return nil, fmt.Errorf("relay: restore: %w", err)
		}
	}
	return &Relay{srv: srv, exp: exp}, nil
}

// Listen binds addr and starts accepting downstream connections.
func (r *Relay) Listen(addr string) (net.Addr, error) { return r.srv.Listen(addr) }

// Serve accepts downstream connections on ln (see server.Serve).
func (r *Relay) Serve(ln net.Listener) error { return r.srv.Serve(ln) }

// SessionID reports the upstream replay session.
func (r *Relay) SessionID() uint64 { return r.exp.SessionID() }

// Server returns the downstream server, which owns the regional monitor
// and the recorder both halves write to.
func (r *Relay) Server() *server.Server { return r.srv }

// TopK answers from the regional sketch (see server.TopK).
func (r *Relay) TopK(k int) []dcs.Estimate { return r.srv.TopK(k) }

// SnapshotState captures the relay's full recovery state: the server
// sections plus the upstream spool, all under the server mutex that also
// admits batches, so the horizons the file promises downstream and the
// spool it owes upstream can never disagree.
func (r *Relay) SnapshotState() (*snapshot.State, error) {
	return r.srv.SnapshotStateWith(func(st *snapshot.State) error {
		st.Spool = r.exp.SnapshotSpool()
		return nil
	})
}

// Stats bundles both halves' ledgers.
type Stats struct {
	Server server.Stats
	Export export.Stats
}

// Stats snapshots both ledgers (not atomically with each other).
func (r *Relay) Stats() Stats {
	return Stats{Server: r.srv.Stats(), Export: r.exp.Stats()}
}

// RegisterTelemetry registers both halves' probes on reg.
func (r *Relay) RegisterTelemetry(reg *telemetry.Registry) {
	r.srv.RegisterTelemetry(reg)
	r.exp.RegisterTelemetry(reg)
}

// Drain blocks until the upstream spool empties (see export.Drain).
func (r *Relay) Drain(timeout time.Duration) error { return r.exp.Drain(timeout) }

// Shutdown stops the relay in dependency order: stop accepting and drain
// downstream handlers first (no new Forward calls after this), then give
// the upstream spool drainBudget to empty, then stop the exporter. With a
// zero budget the spool is abandoned to the snapshot (capture it first).
func (r *Relay) Shutdown(drainBudget time.Duration) {
	r.srv.Shutdown()
	if drainBudget > 0 {
		_ = r.exp.Drain(drainBudget)
	}
	_ = r.exp.Close()
}
