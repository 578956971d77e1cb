package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
)

// promSample matches one well-formed Prometheus text sample line.
var promSample = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? -?\d+$`)

// fixtureRegistry builds a registry exercising both series kinds plus
// events.
func fixtureRegistry() *Registry {
	reg := New()
	reg.Counter("pmem_scrubs_total", "bank", "0").Add(4)
	reg.Counter("pmem_scrubs_total", "bank", "1").Add(6)
	reg.Counter("ecc_corrections_total", "scheme", "diagonal").Add(9)
	h := reg.Histogram("serve_latency_ticks")
	for i := int64(1); i <= 100; i++ {
		h.Observe(i)
	}
	reg.Events().Emit(EvScrub, 17, 0, 1, 2, 0)
	return reg
}

// TestPromExposition: every line is a TYPE comment or a well-formed
// sample, families appear once, and the expected series are present.
func TestPromExposition(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMetrics(&buf, fixtureRegistry().Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	types := map[string]int{}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			parts := strings.Fields(name)
			if len(parts) != 2 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			switch parts[1] {
			case "counter", "summary":
			default:
				t.Fatalf("unknown type in %q", line)
			}
			types[parts[0]]++
			continue
		}
		if !promSample.MatchString(line) {
			t.Fatalf("malformed sample line %q", line)
		}
	}
	for fam, n := range types {
		if n != 1 {
			t.Fatalf("family %s has %d TYPE lines", fam, n)
		}
	}
	for _, want := range []string{
		"# TYPE pmem_scrubs_total counter",
		`pmem_scrubs_total{bank="0"} 4`,
		`pmem_scrubs_total{bank="1"} 6`,
		`ecc_corrections_total{scheme="diagonal"} 9`,
		"# TYPE serve_latency_ticks summary",
		`serve_latency_ticks{quantile="0.5"}`,
		"serve_latency_ticks_sum 5050",
		"serve_latency_ticks_count 100",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Deterministic: a second render is byte-identical.
	var again bytes.Buffer
	if err := WriteMetrics(&again, fixtureRegistry().Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("exposition not deterministic")
	}
}

// TestPromLabelEscaping: quotes, backslashes, and newlines in label
// values stay inside the quoted value.
func TestPromLabelEscaping(t *testing.T) {
	reg := New()
	reg.Counter("odd_total", "k", "a\"b\\c\nd").Inc()
	var buf bytes.Buffer
	if err := WriteMetrics(&buf, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if want := `odd_total{k="a\"b\\c\nd"} 1`; !strings.Contains(buf.String(), want) {
		t.Fatalf("escaping wrong:\n%s", buf.String())
	}
}

// TestHandlerEndpoints: /metrics serves the exposition, /trace serves
// recent events as JSON, and the pprof index answers.
func TestHandlerEndpoints(t *testing.T) {
	srv := httptest.NewServer(Handler(fixtureRegistry()))
	defer srv.Close()

	get := func(path string) (string, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	metrics, ct := get("/metrics")
	if !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	if !strings.Contains(metrics, `pmem_scrubs_total{bank="0"} 4`) {
		t.Fatalf("/metrics missing series:\n%s", metrics)
	}

	trace, ct := get("/trace?n=10")
	if !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("/trace content type %q", ct)
	}
	var doc struct {
		Total  uint64  `json:"total"`
		Events []Event `json:"events"`
	}
	if err := json.Unmarshal([]byte(trace), &doc); err != nil {
		t.Fatalf("/trace not JSON: %v\n%s", err, trace)
	}
	if doc.Total != 1 || len(doc.Events) != 1 || doc.Events[0].Kind != EvScrub {
		t.Fatalf("/trace content wrong: %+v", doc)
	}

	if idx, _ := get("/debug/pprof/"); !strings.Contains(idx, "pprof") {
		t.Fatal("/debug/pprof/ not serving")
	}
}

// TestListenAndServe: the -listen plumbing binds, serves, and shuts down.
func TestListenAndServe(t *testing.T) {
	reg := fixtureRegistry()
	addr, stop, err := ListenAndServe("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	resp, err := http.Get("http://" + addr.String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "ecc_corrections_total") {
		t.Fatalf("live endpoint missing series:\n%s", body)
	}
}
