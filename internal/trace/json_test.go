package trace

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

func TestJSONRoundTrip(t *testing.T) {
	b := nb()
	b.send(0, 1, 1)
	b.recv(1, 0, 1)
	b.ev(KTentative, 1, -1, 0, 2)
	b.ev(KFinalize, 1, -1, 0, 2)
	b.ev(KCtlSend, 0, 1, 9, -1)
	events := b.r.Events()
	events[4].Tag = "CK_BGN"

	var buf bytes.Buffer
	if err := WriteJSON(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("len %d != %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Fatalf("event %d: %+v != %+v", i, got[i], events[i])
		}
	}
}

// TestNarrowFieldsRefused: a Proc, Peer or Seq beyond 32 bits, or a
// 65,536th distinct tag, is refused, never truncated: Record panics, and
// ReadJSON, which feeds tracecheck's recorder, returns an error.
func TestNarrowFieldsRefused(t *testing.T) {
	if strconv.IntSize == 32 {
		t.Skip("every int fits a 32-bit slot")
	}
	wide := int64(math.MaxInt32)
	over, under := int(wide+1), int(-wide-2)
	mustPanic := func(r *Recorder, e Event) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("Record(%+v) kept a value its slot cannot hold", e)
			}
		}()
		r.Record(e)
	}
	for _, e := range []Event{{Proc: over}, {Peer: under}, {Seq: over}} {
		mustPanic(NewRecorder(), e)
	}
	for _, line := range []string{
		`{"kind":"send","proc":2147483648}`,
		`{"kind":"send","proc":0,"peer":-2147483649}`,
		`{"kind":"finalize","proc":0,"seq":2147483648}`,
	} {
		if _, err := ReadJSON(strings.NewReader(line)); err == nil {
			t.Errorf("ReadJSON(%s) accepted a value a recorder cannot hold", line)
		}
	}

	r := NewRecorder()
	var lines strings.Builder
	for i := range maxTags {
		tag := "T" + strconv.Itoa(i)
		r.Record(Event{Kind: KCtlSend, Tag: tag})
		fmt.Fprintf(&lines, "{\"kind\":\"ctl-send\",\"proc\":0,\"tag\":%q}\n", tag)
	}
	if _, err := ReadJSON(strings.NewReader(lines.String())); err != nil {
		t.Fatalf("ReadJSON of %d distinct tags: %v", maxTags, err)
	}
	mustPanic(r, Event{Kind: KCtlSend, Tag: "one too many"})
	lines.WriteString(`{"kind":"ctl-send","proc":0,"tag":"one too many"}`)
	if _, err := ReadJSON(strings.NewReader(lines.String())); err == nil {
		t.Errorf("ReadJSON accepted %d distinct tags", maxTags+1)
	}
}

func TestReadJSONErrors(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader(`{"kind":"martian"}`)); err == nil {
		t.Fatal("unknown kind should error")
	}
	if _, err := ReadJSON(strings.NewReader(`{garbage`)); err == nil {
		t.Fatal("malformed json should error")
	}
	evs, err := ReadJSON(strings.NewReader(""))
	if err != nil || len(evs) != 0 {
		t.Fatal("empty input should give empty trace")
	}
}
