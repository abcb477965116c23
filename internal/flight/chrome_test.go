package flight

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestWriteChrome(t *testing.T) {
	perRank := [][]Event{
		{
			{Kind: Send, Peer: 1, Bytes: 8, Start: 100, End: 300},
			{Kind: Wait, Peer: -1, Start: 300, End: 500},
		},
		{
			{Kind: Recv, Peer: 0, Bytes: 8, Start: 150, End: 400},
		},
	}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, 1e6, perRank); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome document does not parse: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	// 3 complete events + 1 process-name + 2 thread-name metadata
	// events.
	var x, m, procNames int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			x++
		case "M":
			m++
			switch e.Name {
			case "process_name":
				procNames++
				if e.Args["name"].(string) != "gompi" {
					t.Errorf("process name = %v", e.Args["name"])
				}
			case "thread_name":
				if !strings.HasPrefix(e.Args["name"].(string), "rank ") {
					t.Errorf("metadata name = %v", e.Args["name"])
				}
			default:
				t.Errorf("unexpected metadata event %q", e.Name)
			}
		default:
			t.Errorf("unexpected phase %q", e.Ph)
		}
	}
	if x != 3 || m != 3 {
		t.Fatalf("events: %d complete, %d metadata; want 3, 3", x, m)
	}
	if procNames != 1 {
		t.Fatalf("process_name events = %d, want 1", procNames)
	}
	// At 1 MHz, one cycle is one microsecond: the send at cycle 100
	// lasting 200 cycles must appear as ts=100us dur=200us on tid 0.
	first := doc.TraceEvents[2] // [0] is process_name, [1] rank 0's thread_name
	if first.Name != "send" || first.Ts != 100 || first.Dur != 200 || first.Tid != 0 {
		t.Fatalf("send event = %+v", first)
	}
	if first.Args["peer"].(float64) != 1 || first.Args["bytes"].(float64) != 8 {
		t.Fatalf("send args = %v", first.Args)
	}
}

func TestWriteChromeEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, 2.2e9, nil); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
}

func TestWriteChromeBadHz(t *testing.T) {
	if err := WriteChrome(&bytes.Buffer{}, 0, nil); err == nil {
		t.Fatal("WriteChrome(hz=0) did not error")
	}
}
