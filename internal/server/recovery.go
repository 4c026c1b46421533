// Crash-safe snapshot capture and restore for the server: the monitor's
// sketch and detection profiles and the session replay horizons, captured
// atomically under the server mutex, which also admits batches, so the
// file's sections can never disagree about which batches are inside. See
// DESIGN.md §14 for the recovery model.
package server

import (
	"errors"
	"fmt"

	"dcsketch/internal/snapshot"
)

// SnapshotState captures the server's full recovery state. It is safe on a
// live server — holding the server mutex pauses batch admission for the
// duration of the capture (a sketch encode plus a few map walks;
// milliseconds at Table-2 scale) — and on a Shutdown one, which is how the
// daemon writes its final flush.
func (s *Server) SnapshotState() (*snapshot.State, error) {
	return s.SnapshotStateWith(nil)
}

// SnapshotStateWith is SnapshotState with a hook that runs before the
// server mutex is released, so embedders (the relay tier) can capture
// companion state — the upstream exporter spool, which the Forward tap
// appends to under the same mutex — atomically with the horizons that
// promise it. extra must not call back into the server.
func (s *Server) SnapshotStateWith(extra func(st *snapshot.State) error) (*snapshot.State, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var st snapshot.State
	if err := s.captureLocked(&st); err != nil {
		return nil, fmt.Errorf("server: snapshot sketch: %w", err)
	}
	if extra != nil {
		if err := extra(&st); err != nil {
			return nil, err
		}
	}
	return &st, nil
}

// captureLocked fills st's sketch, monitor, and sessions sections.
//
//lint:locked mu
func (s *Server) captureLocked(st *snapshot.State) error {
	var err error
	if st.Sketch, err = s.mon.SnapshotSketch(); err != nil {
		return err
	}
	prof := s.mon.SnapshotProfile()
	st.Monitor = &prof
	st.Sessions = &snapshot.SessionsState{Horizons: s.sessions.export()}
	return nil
}

// RestoreState loads a previously captured snapshot into a fresh server:
// the sketch and profiles into the monitor, the horizons into the session
// table. It must run before Serve; restoring under live traffic would race
// the very invariants the snapshot exists to preserve.
func (s *Server) RestoreState(st *snapshot.State) error {
	s.connMu.Lock()
	serving := s.listener != nil
	s.connMu.Unlock()
	if serving {
		return errors.New("server: RestoreState after Serve")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(st.Sketch) > 0 {
		if err := s.mon.RestoreSketch(st.Sketch); err != nil {
			return fmt.Errorf("server: %w", err)
		}
	}
	if st.Monitor != nil {
		s.mon.RestoreProfile(*st.Monitor)
	}
	if st.Sessions != nil {
		s.sessions.restore(st.Sessions.Horizons)
	}
	return nil
}
