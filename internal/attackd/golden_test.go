package attackd

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"targetedattacks/internal/engine"
)

// The golden HTTP transcripts pin the wire format of the analytic
// endpoints byte for byte: every testdata/transcripts/NAME.request.json
// is replayed against a fresh server and its 200 body compared with
// NAME.response. Job transcripts submit to /v1/jobs, wait for the job
// and compare its /result body; NDJSON transcripts compare cell lines
// in index order (streams deliver completion order), summary last.
// The transcripts are fixed data, recorded once; the test never
// rewrites them.

// transcriptRequest is one recorded request.
type transcriptRequest struct {
	Method string          `json:"method"`
	Path   string          `json:"path"`
	Body   json.RawMessage `json:"body"`
}

func TestGoldenTranscripts(t *testing.T) {
	reqPaths, err := filepath.Glob("testdata/transcripts/*.request.json")
	if err != nil || len(reqPaths) == 0 {
		t.Fatalf("no transcripts found (err %v)", err)
	}
	for _, reqPath := range reqPaths {
		name := strings.TrimSuffix(filepath.Base(reqPath), ".request.json")
		t.Run(name, func(t *testing.T) {
			raw, err := os.ReadFile(reqPath)
			if err != nil {
				t.Fatal(err)
			}
			var req transcriptRequest
			if err := json.Unmarshal(raw, &req); err != nil {
				t.Fatalf("bad transcript request: %v", err)
			}
			ts := newTestServer(t, Config{Pool: engine.New(2)})
			got := replayTranscript(t, ts.URL, req)
			respPath := strings.TrimSuffix(reqPath, ".request.json") + ".response"
			want, err := os.ReadFile(respPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("response differs from %s\n got: %s\nwant: %s", respPath, got, want)
			}
		})
	}
}

// replayTranscript sends req and returns the body to compare: the 200
// response itself, a finished job's result, or an NDJSON stream with
// its cell lines put in index order.
func replayTranscript(t *testing.T, base string, req transcriptRequest) []byte {
	t.Helper()
	if req.Path == "/v1/jobs" {
		var sub JobSubmitResponse
		submitted := fetch(t, req.Method, base+req.Path, req.Body, http.StatusAccepted)
		if err := json.Unmarshal(submitted, &sub); err != nil {
			t.Fatalf("decoding job submission: %v", err)
		}
		if st := pollJob(t, base, sub.ID); st.State != JobDone {
			t.Fatalf("job ended %+v", st)
		}
		return fetch(t, http.MethodGet, base+"/v1/jobs/"+sub.ID+"/result", nil, http.StatusOK)
	}
	body := fetch(t, req.Method, base+req.Path, req.Body, http.StatusOK)
	if strings.Contains(req.Path, "stream=1") {
		lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
		cells := lines[:len(lines)-1]
		sortByIndex(t, cells)
		return append(bytes.Join(lines, []byte("\n")), '\n')
	}
	return body
}

// fetch performs one request and returns its body, failing the test on
// any status but want.
func fetch(t *testing.T, method, url string, body []byte, want int) []byte {
	t.Helper()
	hreq, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != want {
		t.Fatalf("%s %s: status %d, want %d: %s", method, url, resp.StatusCode, want, out)
	}
	return out
}
