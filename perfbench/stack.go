package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"lrfcsvm/internal/feedbacklog"
	"lrfcsvm/internal/retrieval"
	"lrfcsvm/internal/server"
	"lrfcsvm/internal/storage"
)

// stack is one running server: engine, journal, server.Handler and a
// loopback listener.
type stack struct {
	engine  *retrieval.Engine
	journal *storage.Journal
	srv     *server.Server
	hs      *http.Server
	base    string
	served  chan error
	// total is how long the set-up took.
	total time.Duration
}

// engineOptions returns the engine configuration of workload w.
func (w workload) engineOptions() retrieval.Options {
	return retrieval.Options{ANN: retrieval.ANNOptions{Enable: w.ann}}
}

// serverConfig mirrors cbirserver's defaults.
func serverConfig() server.Config {
	return server.Config{QueryTimeout: 10 * time.Second, TrainTimeout: 30 * time.Second}
}

// startStack copies the base journal to path and starts a server over in's
// collection, replaying the journal. The timed part runs from opening the
// journal to the first answered /api/status.
func startStack(in *inputs, w workload, path string) (*stack, error) {
	if err := copyFile(in.journal, path); err != nil {
		return nil, err
	}
	visual := copyVisual(in.visual)
	fblog := feedbacklog.NewLog(len(visual))

	start := time.Now()
	j, visual, _, err := storage.OpenJournal(path, visual, fblog, storage.JournalOptions{Fsync: w.fsync})
	if err != nil {
		return nil, fmt.Errorf("open journal: %w", err)
	}
	st := &stack{journal: j, served: make(chan error, 1)}
	opts := w.engineOptions()
	opts.Journal = j
	if st.engine, err = retrieval.NewEngine(visual, fblog, opts); err != nil {
		j.Close()
		return nil, err
	}
	st.srv = server.NewWithConfig(st.engine, serverConfig())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.close()
		return nil, err
	}
	st.base = "http://" + ln.Addr().String()
	st.hs = &http.Server{Handler: st.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() { st.served <- st.hs.Serve(ln) }()
	resp, err := http.Get(st.base + "/api/status")
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
	}
	http.DefaultClient.CloseIdleConnections()
	if err != nil {
		st.close()
		return nil, fmt.Errorf("first status request: %w", err)
	}
	st.total = time.Since(start)
	return st, nil
}

// close shuts the stack down and waits for the listener goroutine.
func (st *stack) close() {
	if st.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := st.hs.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: shutdown:", err)
		}
		cancel()
		if err := <-st.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
		}
	}
	if st.srv != nil {
		st.srv.Close()
	}
	if st.engine != nil {
		st.engine.Close()
	}
	if err := st.journal.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: close journal:", err)
	}
}

func copyFile(src, dst string) error {
	data, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, data, 0o644)
}

// trialPath names the journal of set-up trial i in dir.
func trialPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("trial-%d.wal", i))
}
