package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"payless/internal/market"
)

// sampleEvery is how often a position's rows are compared with the
// Download-All reference answer (1 query in 20).
const sampleEvery = 20

// answer is what one response must reproduce on every replay of its position.
type answer struct {
	rows int
	sum  uint64
	tx   int64
}

// queryResponse is the part of the daemon's response envelope the driver reads.
type queryResponse struct {
	Rows         [][]string `json:"rows"`
	Transactions int64      `json:"transactions"`
}

// target is one running daemon + market pair, in child processes or, for the
// traced run, in this process.
type target struct {
	daemonURL string
	marketURL string
}

// scrape is one reading of everything the two processes report about
// themselves. Deltas between two scrapes bracket a measured window.
type scrape struct {
	daemon  procStats
	market  procStats
	metrics map[string]float64 // the daemon's /metrics
	meter   market.Meter
}

// The slowest request of any workload takes a second or two (a pre-warm
// buying a table whole); one that has not answered after a minute never will
// within the time a caller gives a run.
var httpClient = &http.Client{
	Transport: &http.Transport{MaxIdleConnsPerHost: 8},
	Timeout:   time.Minute,
}

func getBody(url string, header http.Header) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	req.Header = header
	resp, err := httpClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", url, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

func getJSON(url string, header http.Header, out any) error {
	body, err := getBody(url, header)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return nil
}

var marketAuth = http.Header{market.AuthHeader: {marketKey}}

func (t target) scrape() (scrape, error) {
	var s scrape
	if err := getJSON(t.daemonURL+"/bench/stats", nil, &s.daemon); err != nil {
		return s, err
	}
	if err := getJSON(t.marketURL+"/bench/stats", nil, &s.market); err != nil {
		return s, err
	}
	body, err := getBody(t.daemonURL+"/metrics", nil)
	if err != nil {
		return s, err
	}
	s.metrics = parseProm(body)
	if err := getJSON(t.marketURL+"/v1/meter", marketAuth, &s.meter); err != nil {
		return s, err
	}
	return s, nil
}

// ledgerSum is Σ tenant ledgers in a daemon scrape.
func ledgerSum(metrics map[string]float64) int64 {
	var sum float64
	for name, v := range metrics {
		if strings.HasPrefix(name, "paylessd_tenant_spend_total{") {
			sum += v
		}
	}
	return int64(sum)
}

// passResult is one pass: one request list against one fresh daemon.
type passResult struct {
	wall      time.Duration // the measured window
	latMs     []float64     // per position
	answers   []answer      // per position
	respBytes int64
	failed    int    // non-200 or undecodable responses in the window
	firstErr  string // the first such failure, for the report
	samples   map[int][][]string
	prewarmTx int64
	before    scrape // at the start of the measured window
	after     scrape // at its end
	liveHeap  uint64 // HeapAlloc after a forced GC, window closed
	// meterAtStart is the seller meter before the daemon existed; the pass's
	// whole bill (pre-warm included) is after.meter minus it.
	meterAtStart market.Meter
	daemonStart  time.Duration
	prewarm      time.Duration
	// stolen is the CPU time the hypervisor gave to other guests during the
	// window, machine-wide: the one interference this sandbox shows.
	stolen time.Duration
	// hostSpeed is how fast the host was around the window, 1 being the
	// reference box in a quiet phase: the mean of a reading just before the
	// window and one just after (calibrate). This host has phases of minutes
	// in which everything, calibration included, runs up to 1.8 times slower;
	// timings are therefore reported as what they would have been at speed 1:
	// durations multiplied by hostSpeed, rates divided by it (README, "Noise").
	hostSpeed float64
}

// refSpinRate is how many /bench/spin requests per second one client got
// served on the box this was sized on (2-vCPU guest, Xeon 2.1 GHz, Go 1.24)
// while the host was quiet; two clients got twice that.
const refSpinRate = 2450

// calibrateWindow is how long one reading of the host's speed takes.
const calibrateWindow = 150 * time.Millisecond

// calibrate reads the host's speed: the workload's clients, in the same
// closed loop and against the same process as the requests that are being
// timed, fetch /bench/spin for calibrateWindow. The result is the rate they
// were served at as a share of the reference rate.
func calibrate(ctx context.Context, baseURL string, clients int) (float64, error) {
	var (
		wg     sync.WaitGroup
		served atomic.Int64
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Since(start) < calibrateWindow {
				if _, err := getBody(baseURL+"/bench/spin", nil); err == nil {
					served.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if served.Load() == 0 {
		return 0, fmt.Errorf("calibration: %s/bench/spin served nothing in %v", baseURL, calibrateWindow)
	}
	return float64(served.Load()) / time.Since(start).Seconds() / float64(refSpinRate*clients), nil
}

// stolenCPU reads the machine's cumulative steal time; 0 where /proc/stat
// does not report one.
func stolenCPU() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal …
	if len(f) < 9 {
		return 0
	}
	ticks, _ := strconv.ParseInt(f[8], 10, 64)
	return time.Duration(ticks) * 10 * time.Millisecond // USER_HZ is 100 on Linux
}

// stealShare is the share of the machine's CPU time stolen during the window.
func (pr *passResult) stealShare() float64 {
	return ratio(pr.stolen.Seconds(), pr.wall.Seconds()*float64(runtime.NumCPU()))
}

// launcher brings up a fresh daemon for one pass and returns how to stop it.
type launcher func(storeDir string) (daemonURL string, stop func() error, err error)

// post issues one query as tenant and returns the response body.
func post(ctx context.Context, url, key string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Authorization", "Bearer "+key)
	req.Header.Set("Content-Type", "application/json")
	resp, err := httpClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

func sqlBody(sql string) []byte {
	body, err := json.Marshal(map[string]string{"sql": sql})
	if err != nil {
		panic(err) // a string always marshals
	}
	return body
}

// runPass starts a daemon, pre-warms it if the workload is covered, issues
// queries from the workload's clients in a closed loop (each client sends
// its next request when the previous one has been answered), and brackets
// that window with scrapes. keepSamples retains the rows of every sampled
// position for the reference check.
func runPass(ctx context.Context, p *plan, queries, cover []string, marketURL string, launch launcher, scratch string, keepSamples bool) (*passResult, error) {
	res := &passResult{
		latMs:   make([]float64, len(queries)),
		answers: make([]answer, len(queries)),
	}
	bodies := make([][]byte, len(queries))
	for i, sql := range queries {
		bodies[i] = sqlBody(sql)
	}
	if err := getJSON(marketURL+"/v1/meter", marketAuth, &res.meterAtStart); err != nil {
		return nil, err
	}
	storeDir := ""
	if p.durable {
		storeDir = filepath.Join(scratch, "store")
	}
	t0 := time.Now()
	daemonURL, stop, err := launch(storeDir)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			stop()
		}
	}()
	res.daemonStart = time.Since(t0)
	tgt := target{daemonURL: daemonURL, marketURL: marketURL}
	queryURL := daemonURL + "/v1/query"

	if p.covered {
		t1 := time.Now()
		for _, sql := range cover {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			out, err := post(ctx, queryURL, tenantKeys[0], sqlBody(sql))
			if err != nil {
				return nil, fmt.Errorf("pre-warm %q: %w", sql, err)
			}
			var qr queryResponse
			if err := json.Unmarshal(out, &qr); err != nil {
				return nil, fmt.Errorf("pre-warm %q: %w", sql, err)
			}
			res.prewarmTx += qr.Transactions
		}
		res.prewarm = time.Since(t1)
	}

	// The two calibration readings lie outside the scrapes, so what they
	// cost the daemon is in no per-query count.
	speedBefore, err := calibrate(ctx, daemonURL, p.clients)
	if err != nil {
		return nil, err
	}
	if res.before, err = tgt.scrape(); err != nil {
		return nil, err
	}
	if keepSamples {
		res.samples = make(map[int][][]string)
	}
	var (
		next atomic.Int64
		mu   sync.Mutex // failed, firstErr, samples, respBytes
		wg   sync.WaitGroup
	)
	stolenBefore := stolenCPU()
	start := time.Now()
	for c := 0; c < p.clients; c++ {
		wg.Add(1)
		go func(key string) {
			defer wg.Done()
			var bytesIn int64
			for ctx.Err() == nil {
				pos := int(next.Add(1)) - 1
				if pos >= len(queries) {
					break
				}
				t := time.Now()
				out, err := post(ctx, queryURL, key, bodies[pos])
				res.latMs[pos] = float64(time.Since(t)) / float64(time.Millisecond)
				var qr queryResponse
				if err == nil {
					err = json.Unmarshal(out, &qr)
				}
				if err != nil {
					mu.Lock()
					res.failed++
					if res.firstErr == "" {
						res.firstErr = fmt.Sprintf("position %d: %v", pos, err)
					}
					mu.Unlock()
					res.answers[pos] = answer{rows: -1}
					continue
				}
				bytesIn += int64(len(out))
				res.answers[pos] = answer{rows: len(qr.Rows), sum: checksum(qr.Rows), tx: qr.Transactions}
				if keepSamples && pos%sampleEvery == 0 {
					mu.Lock()
					res.samples[pos] = qr.Rows
					mu.Unlock()
				}
			}
			mu.Lock()
			res.respBytes += bytesIn
			mu.Unlock()
		}(tenantKeys[c%len(tenantKeys)])
	}
	wg.Wait()
	res.wall = time.Since(start)
	res.stolen = stolenCPU() - stolenBefore
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if res.after, err = tgt.scrape(); err != nil {
		return nil, err
	}
	speedAfter, err := calibrate(ctx, daemonURL, p.clients)
	if err != nil {
		return nil, err
	}
	res.hostSpeed = (speedBefore + speedAfter) / 2
	var heap procStats
	if err := getJSON(daemonURL+"/bench/stats?gc=1", nil, &heap); err != nil {
		return nil, err
	}
	res.liveHeap = heap.HeapAlloc
	stopped = true
	if err := stop(); err != nil {
		return nil, fmt.Errorf("stop daemon: %w", err)
	}
	if err := os.RemoveAll(storeDir); err != nil {
		return nil, err
	}
	return res, nil
}
