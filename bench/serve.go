package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"agmdp/internal/graph"
)

// Credentials of the benchmark's tenants file. Budgets and rate limits are
// set far above what a run can use: a refusal is a failure, not load shaping.
const (
	operatorToken = "bench-operator"
	tenantsJSON   = `{"operator_token": "bench-operator",
 "default_budget": 1e12, "default_rate_per_sec": 1e9, "default_burst": 1e9,
 "tenants": [{"id": "tenant-a", "key": "bench-key-a"}, {"id": "tenant-b", "key": "bench-key-b"}]}
`
)

var tenantKeys = []string{"bench-key-a", "bench-key-b"}

// serverProc is a running agmdp-serve.
type serverProc struct {
	cmd  *exec.Cmd
	dir  string
	base string // http://host:port
	log  *os.File
	done chan struct{} // closed once the process has exited
}

// startServer starts agmdp-serve with its state under dir and waits until
// it answers its health probe.
func startServer(ctx context.Context, bin, dir string, extra ...string) (*serverProc, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	tenants := filepath.Join(dir, "tenants.json")
	if err := os.WriteFile(tenants, []byte(tenantsJSON), 0o600); err != nil {
		return nil, err
	}
	logPath := filepath.Join(dir, "server.log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", "127.0.0.1:0", "-tenants", tenants, "-pprof"}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server must not outlive the benchmark, however the benchmark ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &serverProc{cmd: cmd, dir: dir, log: logf, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(s.done)
	}()

	// The banner line carries the bound address.
	deadline := time.Now().Add(30 * time.Second)
	for s.base == "" {
		data, _ := os.ReadFile(logPath)
		if _, rest, ok := strings.Cut(string(data), "listening on "); ok {
			if addr, _, ok := strings.Cut(rest, " "); ok {
				s.base = "http://" + addr
				break
			}
		}
		select {
		case <-s.done:
			return nil, fmt.Errorf("agmdp-serve exited during start-up: %s", tail(logPath))
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("agmdp-serve did not report its address: %s", tail(logPath))
		}
	}
	return s, nil
}

// stop terminates the server gracefully, killing it if it does not exit in
// time, and waits for it.
func (s *serverProc) stop() {
	if s == nil {
		return
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(20 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
	}
	s.log.Close()
}

func tail(path string) string {
	data, _ := os.ReadFile(path)
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return strings.TrimSpace(string(data))
}

// target reads the server process: CPU and RSS from /proc, layer metrics
// from the operator /metrics endpoint, allocator counters from the heap
// profile's MemStats block.
func (s *serverProc) target(c *client) target {
	op := &client{http: c.http, base: c.base, key: operatorToken}
	return target{
		pid: s.cmd.Process.Pid,
		scrape: func() (promSnap, error) {
			body, err := op.do(context.Background(), nil, 0, 0, "GET", "/metrics", nil, "")
			if err != nil {
				return nil, err
			}
			return parseProm(string(body))
		},
		mem: func() (memStats, error) {
			body, err := op.do(context.Background(), nil, 0, 0, "GET", "/debug/pprof/allocs?debug=1", nil, "")
			if err != nil {
				return memStats{}, err
			}
			return parseMemStats(string(body))
		},
	}
}

// client is one tenant's (or the operator's) view of the server. Every call
// is recorded as a client.wait span (waiting for a free connection) and a
// client.http span (from holding a connection to the last body byte).
type client struct {
	http *http.Client
	base string
	key  string
}

// newHTTPClient allows at most two connections, so the benchmark never has
// more than two requests in flight against a two-core host.
func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     2,
			MaxIdleConnsPerHost: 2,
			DisableCompression:  true,
		},
	}
}

// do sends one request and reads the whole response. A status outside 2xx
// is an error.
func (c *client) do(ctx context.Context, tr *tracer, op, parent int64, method, path string, body []byte, ctype string) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	sent := time.Now()
	got := sent
	if tr != nil {
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{GotConn: func(httptrace.GotConnInfo) { got = time.Now() }})
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	req.Header.Set("X-API-Key", c.key)
	resp, err := c.http.Do(req)
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	end := time.Now()
	tr.record(op, parent, "client.wait", sent, got)
	tr.record(op, parent, "client.http", got, end)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return data, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return data, nil
}

// doJSON sends a JSON body (when in is non-nil) and decodes a JSON reply
// into out (when non-nil).
func (c *client) doJSON(ctx context.Context, tr *tracer, op, parent int64, method, path string, in, out any) error {
	var body []byte
	ctype := ""
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
		ctype = "application/json"
	}
	data, err := c.do(ctx, tr, op, parent, method, path, body, ctype)
	if err != nil || out == nil {
		return err
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("%s %s: decoding reply: %w", method, path, err)
	}
	return nil
}

// checkSnapshot validates a served binary snapshot: it must decode (the
// decoder checks every CSR invariant) and have the source's node count.
func checkSnapshot(data []byte, nodes int) error {
	g, err := graph.DecodeBinary(data)
	if err != nil {
		return err
	}
	if g.NumNodes() != nodes {
		return fmt.Errorf("served graph has %d nodes, want %d", g.NumNodes(), nodes)
	}
	return nil
}

// contentID is the service's content address of a binary snapshot.
func contentID(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:16])
}

// serverBase holds what both serving workloads set up: a server, one client
// per tenant, and the source graph each tenant uploaded.
type serverBase struct {
	o       options
	srv     *serverProc
	http    *http.Client
	tenants []*client
	source  []byte // binary snapshot of the source graph
	nodes   int
	graphID string
	setups  int
}

// start launches a fresh server in its own directory and uploads the
// source graph for each of the first n tenants.
func (b *serverBase) start(ctx context.Context, n int, extra func(dir string) []string) error {
	if b.source == nil {
		// Pokec's attributes are near-balanced, so every DP fit of it gets a
		// tame acceptance table. Epinions' rare attribute pair makes the
		// table, and with it the cost of every FCL sample, swing twentyfold
		// with the noise draw, which no bound on run-to-run spread survives.
		g, err := generate(b.o.seed, "pokec", b.o.sizes.serveScale)
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := graph.WriteBinaryTo(&buf, g); err != nil {
			return err
		}
		b.source, b.nodes = buf.Bytes(), g.NumNodes()
	}
	b.setups++
	dir, err := filepath.Abs(filepath.Join(b.o.work, fmt.Sprintf("%s-%d-%d", b.o.workload, os.Getpid(), b.setups)))
	if err != nil {
		return err
	}
	var args []string
	if extra != nil {
		args = extra(dir)
	}
	if b.srv, err = startServer(ctx, b.o.server, dir, args...); err != nil {
		return err
	}
	b.http = newHTTPClient()
	b.tenants = nil
	for _, key := range tenantKeys[:n] {
		c := &client{http: b.http, base: b.srv.base, key: key}
		var created struct {
			ID string `json:"id"`
		}
		data, err := c.do(ctx, nil, 0, 0, "POST", "/v1/graphs", b.source, "application/octet-stream")
		if err == nil {
			err = json.Unmarshal(data, &created)
		}
		if err != nil {
			return fmt.Errorf("uploading the source graph: %w", err)
		}
		b.graphID = created.ID
		b.tenants = append(b.tenants, c)
	}
	return nil
}

// fit fits an FCL model to the uploaded source graph synchronously.
func (b *serverBase) fit(ctx context.Context, c *client, seed int64) (string, error) {
	var fitted struct {
		ID string `json:"id"`
	}
	err := c.doJSON(ctx, nil, 0, 0, "POST", "/v1/fit", map[string]any{
		"graph_id": b.graphID, "epsilon": epsilon, "model": "fcl", "seed": seed,
	}, &fitted)
	return fitted.ID, err
}

func (b *serverBase) teardown() {
	b.srv.stop()
	if b.srv != nil {
		os.RemoveAll(b.srv.dir)
	}
	b.srv = nil
	if b.http != nil {
		b.http.CloseIdleConnections()
	}
}

func (b *serverBase) target() target { return b.srv.target(b.tenants[0]) }

// counter reads the current total of a server metric family.
func (b *serverBase) counter(name string) (float64, error) {
	snap, err := b.target().scrape()
	if err != nil {
		return 0, err
	}
	return snap.sum(name, nil), nil
}

// mustStay records a check that a counter read at setup has not moved since.
func (b *serverBase) mustStay(p *phase, name string, before float64) {
	now, err := b.counter(name)
	if err == nil && now != before {
		err = fmt.Errorf("%s moved by %v during the run, want 0", name, now-before)
	}
	p.check(err)
}

// requestSeed derives the sample seed of request i of caller c.
func requestSeed(seed int64, c, i int) int64 { return seed<<24 + int64(c)<<20 + int64(i) + 1 }
