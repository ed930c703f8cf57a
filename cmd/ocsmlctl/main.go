// Command ocsmlctl is the operator CLI for a running OCSML deployment.
// It speaks to the admin control plane an ocsmld daemon (or spawn-all
// cluster) exposes with -admin-addr:
//
//	ocsmlctl -node 127.0.0.1:7070 status       # per-node protocol state, durable seq and line
//	ocsmlctl -node 127.0.0.1:7070 recovery     # last line, epoch, counters
//	ocsmlctl -node 127.0.0.1:7070 checkpoint   # trigger a tentative round
//	ocsmlctl -node 127.0.0.1:7070 metrics      # raw Prometheus scrape
//
// -json prints the server's JSON response verbatim instead of the
// human tables (metrics is always the raw text exposition). A non-2xx
// response or an unreachable node exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main, testably: args are the command line after the program
// name, output goes to the given writers, the exit code is returned.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ocsmlctl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	node := fs.String("node", "127.0.0.1:7070", "admin address of an ocsmld (-admin-addr)")
	jsonOut := fs.Bool("json", false, "print the server's JSON response verbatim")
	timeout := fs.Duration("timeout", 10*time.Second, "per-request timeout")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: ocsmlctl [-node addr] [-json] [-timeout d] <status|recovery|checkpoint|metrics>\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	cmd := fs.Arg(0)

	client := &http.Client{Timeout: *timeout}
	defer client.CloseIdleConnections()
	c := &ctl{base: "http://" + *node, client: client, stdout: stdout, stderr: stderr, json: *jsonOut}

	switch cmd {
	case "status":
		return c.status()
	case "recovery":
		return c.recovery()
	case "checkpoint":
		return c.checkpoint()
	case "metrics":
		return c.metrics()
	default:
		fmt.Fprintf(stderr, "ocsmlctl: unknown command %q\n", cmd)
		fs.Usage()
		return 2
	}
}

type ctl struct {
	base   string
	client *http.Client
	stdout io.Writer
	stderr io.Writer
	json   bool
}

// fetch performs one request and returns the body; a transport error
// or non-2xx status is reported to stderr and returns ok=false.
func (c *ctl) fetch(method, path string) (body []byte, ok bool) {
	req, err := http.NewRequest(method, c.base+path, nil)
	if err != nil {
		fmt.Fprintf(c.stderr, "ocsmlctl: %v\n", err)
		return nil, false
	}
	resp, err := c.client.Do(req)
	if err != nil {
		fmt.Fprintf(c.stderr, "ocsmlctl: %v\n", err)
		return nil, false
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		fmt.Fprintf(c.stderr, "ocsmlctl: reading %s: %v\n", path, err)
		return nil, false
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		fmt.Fprintf(c.stderr, "ocsmlctl: %s %s: %s\n%s", method, path, resp.Status, body)
		return nil, false
	}
	return body, true
}

// emit handles the -json passthrough; returns true if it printed.
func (c *ctl) emit(body []byte) bool {
	if !c.json {
		return false
	}
	fmt.Fprintf(c.stdout, "%s", body)
	return true
}

// The response shapes mirror internal/admin's JSON (kept in sync by
// cmd/ocsmld's control-plane integration test, which drives this CLI
// against a live cluster).

type nodeStatus struct {
	ID            int    `json:"id"`
	N             int    `json:"n"`
	Epoch         int    `json:"epoch"`
	Csn           int    `json:"csn"`
	Stat          string `json:"stat"`
	TentSet       []int  `json:"tentSet"`
	LogLen        int    `json:"logLen"`
	Proto         string `json:"proto"`
	AppDone       bool   `json:"appDone"`
	RecoveredLine int    `json:"recoveredLine"`
	DurableSeq    int    `json:"durableSeq"`
	DurableLine   int    `json:"durableLine"`
	StorageQueue  int    `json:"storageQueue"`
	Peers         []struct {
		ID        int    `json:"id"`
		Addr      string `json:"addr"`
		Connected bool   `json:"connected"`
		QueueLen  int    `json:"queueLen"`
	} `json:"peers"`
}

func (c *ctl) status() int {
	body, ok := c.fetch(http.MethodGet, "/v1/status")
	if !ok {
		return 1
	}
	if c.emit(body) {
		return 0
	}
	var resp struct {
		Nodes []struct {
			Status *nodeStatus `json:"status"`
			Error  string      `json:"error"`
		} `json:"nodes"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		fmt.Fprintf(c.stderr, "ocsmlctl: decoding status: %v\n", err)
		return 1
	}
	fmt.Fprintf(c.stdout, "%-4s %-6s %-5s %-10s %-8s %-7s %-8s %-5s %-8s %s\n",
		"ID", "EPOCH", "CSN", "STAT", "TENTSET", "LOGLEN", "DURABLE", "LINE", "STORAGE", "PEERS")
	for _, e := range resp.Nodes {
		if e.Error != "" {
			fmt.Fprintf(c.stdout, "-    error: %s\n", e.Error)
			continue
		}
		st := e.Status
		up := 0
		for _, p := range st.Peers {
			if p.Connected {
				up++
			}
		}
		tent := "-"
		if len(st.TentSet) > 0 {
			parts := make([]string, len(st.TentSet))
			for i, p := range st.TentSet {
				parts[i] = fmt.Sprintf("%d", p)
			}
			tent = strings.Join(parts, ",")
		}
		stat := st.Stat
		if stat == "" {
			stat = "-"
		}
		fmt.Fprintf(c.stdout, "P%-3d %-6d %-5d %-10s %-8s %-7d %-8d %-5d %-8d %d/%d up\n",
			st.ID, st.Epoch, st.Csn, stat, tent, st.LogLen, st.DurableSeq, st.DurableLine, st.StorageQueue, up, len(st.Peers))
	}
	return 0
}

func (c *ctl) recovery() int {
	body, ok := c.fetch(http.MethodGet, "/v1/recovery")
	if !ok {
		return 1
	}
	if c.emit(body) {
		return 0
	}
	var resp struct {
		Line     int              `json:"line"`
		Epoch    int              `json:"epoch"`
		Counters map[string]int64 `json:"counters"`
		Phases   []struct {
			Phase  string  `json:"phase"`
			LastMs float64 `json:"lastMs"`
		} `json:"phases"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		fmt.Fprintf(c.stderr, "ocsmlctl: decoding recovery: %v\n", err)
		return 1
	}
	fmt.Fprintf(c.stdout, "last line  %d\n", resp.Line)
	fmt.Fprintf(c.stdout, "epoch      %d\n", resp.Epoch)
	for _, ph := range resp.Phases {
		fmt.Fprintf(c.stdout, "last %-10s %.2f ms\n", ph.Phase, ph.LastMs)
	}
	names := make([]string, 0, len(resp.Counters))
	for name := range resp.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(c.stdout, "  %-28s %d\n", name, resp.Counters[name])
	}
	return 0
}

func (c *ctl) checkpoint() int {
	body, ok := c.fetch(http.MethodPost, "/v1/checkpoint")
	if !ok {
		return 1
	}
	if c.emit(body) {
		return 0
	}
	var resp struct {
		Triggered []struct {
			ID    int    `json:"id"`
			Csn   int    `json:"csn"`
			Error string `json:"error"`
		} `json:"triggered"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		fmt.Fprintf(c.stderr, "ocsmlctl: decoding checkpoint: %v\n", err)
		return 1
	}
	for _, e := range resp.Triggered {
		if e.Error != "" {
			fmt.Fprintf(c.stdout, "P%-3d error: %s\n", e.ID, e.Error)
			continue
		}
		fmt.Fprintf(c.stdout, "P%-3d triggered, csn now %d\n", e.ID, e.Csn)
	}
	return 0
}

func (c *ctl) metrics() int {
	body, ok := c.fetch(http.MethodGet, "/metrics")
	if !ok {
		return 1
	}
	fmt.Fprintf(c.stdout, "%s", body)
	return 0
}
