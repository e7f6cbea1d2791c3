package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"time"

	"fuzzydup"
	"fuzzydup/internal/server"
	"fuzzydup/internal/sqlwire"
)

// dedupd is an in-process dedupd on loopback listeners: HTTP and the
// MySQL wire protocol, with a WAL in dataDir (fsync on group commit).
type dedupd struct {
	srv     *server.Server
	hs      *http.Server
	base    string
	sqlAddr string
	dataDir string
	served  chan struct{}
}

func startDedupd(dataDir string) (*dedupd, error) {
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{
		Workers: nproc,
		DataDir: dataDir,
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		return nil, fmt.Errorf("server.New: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, err
	}
	sqlLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ln.Close()
		srv.Shutdown(context.Background())
		return nil, err
	}
	srv.StartSQL(sqlLn)
	d := &dedupd{
		srv:     srv,
		hs:      &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		base:    "http://" + ln.Addr().String(),
		sqlAddr: sqlLn.Addr().String(),
		dataDir: dataDir,
		served:  make(chan struct{}),
	}
	go func() {
		defer close(d.served)
		d.hs.Serve(ln)
	}()
	return d, nil
}

// stop shuts the listeners and the job engine down, waits for the serve
// loop to exit, and removes the data directory.
func (d *dedupd) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	d.hs.Shutdown(ctx)
	<-d.served
	d.srv.Shutdown(ctx)
	os.RemoveAll(d.dataDir)
}

// client is one closed-loop client: a single keep-alive HTTP connection.
type client struct {
	base string
	hc   *http.Client
}

func (d *dedupd) newClient() *client {
	return &client{base: d.base, hc: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// httpError is a non-2xx response.
type httpError struct {
	status int
	body   string
}

func (e *httpError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.status, e.body) }

// do sends one request with an optional JSON (or raw []byte) body and
// decodes a JSON response into out. It returns the response body size.
func (c *client) do(method, path string, body any, out any) (int, error) {
	var rd io.Reader
	switch b := body.(type) {
	case nil:
	case []byte:
		rd = bytes.NewReader(b)
	default:
		enc, err := json.Marshal(b)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(enc)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode/100 != 2 {
		return len(raw), &httpError{status: resp.StatusCode, body: string(raw)}
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return len(raw), fmt.Errorf("%s %s: decoding response: %w", method, path, err)
		}
	}
	return len(raw), nil
}

// The response shapes the benchmark reads (a subset of dedupd's JSON).

type datasetInfo struct {
	ID string `json:"id"`
}

type recordItem struct {
	RID    int64           `json:"rid"`
	Record fuzzydup.Record `json:"record"`
}

type jobStatus struct {
	ID       string     `json:"id"`
	State    string     `json:"state"`
	Error    string     `json:"error"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started"`
	Finished *time.Time `json:"finished"`
}

type sweepResult struct {
	Groups          [][]int `json:"groups"`
	Representatives []int   `json:"representatives"`
}

type jobResult struct {
	Results   []sweepResult `json:"results"`
	RecordIDs []int64       `json:"record_ids"`
}

type mutationResponse struct {
	RecordIDs []int64 `json:"record_ids"`
	RepairJob string  `json:"repair_job"`
}

// createDataset registers a dataset with its records in one request.
func (c *client) createDataset(name string, recs []fuzzydup.Record) (datasetInfo, error) {
	var info datasetInfo
	_, err := c.do("POST", "/v1/datasets", map[string]any{"name": name, "records": recs}, &info)
	return info, err
}

// listRecords returns the dataset's records with their rids, in order.
func (c *client) listRecords(ds string) ([]recordItem, error) {
	var out struct {
		Records []recordItem `json:"records"`
	}
	_, err := c.do("GET", "/v1/datasets/"+ds+"/records", nil, &out)
	return out.Records, err
}

// submitJob posts a job spec and returns the accepted status.
func (c *client) submitJob(spec map[string]any) (jobStatus, error) {
	var st jobStatus
	_, err := c.do("POST", "/v1/jobs", spec, &st)
	return st, err
}

// jobPoll is the status poll interval while waiting on a job.
const jobPoll = time.Millisecond

// waitJob polls a job until it is terminal; a job that ends in any state
// but done is an error.
func (c *client) waitJob(id string, timeout time.Duration) (jobStatus, error) {
	deadline := time.Now().Add(timeout)
	for {
		var st jobStatus
		if _, err := c.do("GET", "/v1/jobs/"+id, nil, &st); err != nil {
			return st, err
		}
		switch st.State {
		case "done":
			return st, nil
		case "failed", "cancelled":
			return st, fmt.Errorf("job %s %s: %s", id, st.State, st.Error)
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("job %s still %s after %v", id, st.State, timeout)
		}
		time.Sleep(jobPoll)
	}
}

func (c *client) jobResult(id string) (jobResult, error) {
	var res jobResult
	_, err := c.do("GET", "/v1/jobs/"+id+"/result", nil, &res)
	return res, err
}

// scrape fetches and strictly parses the Prometheus exposition.
func (c *client) scrape() (*promSnap, error) {
	req, err := http.NewRequest("GET", c.base+"/metrics?format=prometheus", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	return parseProm(resp.Body)
}

// sqlDial opens one MySQL wire-protocol client connection.
func (d *dedupd) sqlDial() (*sqlwire.Client, error) {
	cl, err := sqlwire.Dial(d.sqlAddr, "bench", "", "")
	if err != nil {
		return nil, fmt.Errorf("sql dial: %w", err)
	}
	return cl, nil
}

func toRecords(rows [][]string) []fuzzydup.Record {
	out := make([]fuzzydup.Record, len(rows))
	for i, r := range rows {
		out[i] = r
	}
	return out
}
