package trace

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadJSON: arbitrary input must never panic; valid traces must
// round-trip.
func FuzzReadJSON(f *testing.F) {
	b := nb()
	b.send(0, 1, 1)
	b.recv(1, 0, 1)
	b.ev(KFinalize, 1, -1, 0, 1)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, b.r.Events()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add(`{"g":1,"t":5,"kind":"send","proc":0,"peer":1,"msg":3}`)
	f.Add("")
	f.Add(`{"kind":"martian"}`)
	f.Add(`{"g":1,"kind":"send","proc":2147483648,"peer":1,"msg":3}`)
	f.Add("{")

	f.Fuzz(func(t *testing.T, in string) {
		events, err := ReadJSON(strings.NewReader(in))
		if err != nil {
			return
		}
		// Whatever parsed must survive a write/read cycle unchanged.
		var out bytes.Buffer
		if err := WriteJSON(&out, events); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		again, err := ReadJSON(&out)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(again) != len(events) {
			t.Fatalf("round trip changed length: %d != %d", len(again), len(events))
		}
		for i := range events {
			if events[i] != again[i] {
				t.Fatalf("round trip changed event %d", i)
			}
		}
		// And it must fit a Recorder, which gives back every field but
		// the GSeq it assigns.
		r := NewRecorder()
		for _, e := range events {
			r.Record(e)
		}
		for i, e := range r.Events() {
			want := events[i]
			want.GSeq = int64(i) + 1
			if e != want {
				t.Fatalf("recorder changed event %d: %+v, want %+v", i, e, want)
			}
		}
	})
}

// FuzzCheckEvents: the consistency checker must never panic on arbitrary
// event structures, and orphan/in-flight sets must be disjoint.
func FuzzCheckEvents(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		const n = 4
		var events []Event
		g := int64(0)
		for i := 0; i+1 < len(raw); i += 2 {
			g++
			kind := KSend
			if raw[i]%2 == 1 {
				kind = KRecv
			}
			events = append(events, Event{
				GSeq: g, Kind: kind,
				Proc:  int(raw[i]) % n,
				Peer:  int(raw[i+1]) % n,
				MsgID: int64(raw[i+1]%16) + 1,
			})
		}
		cut := NewCut(n)
		for p := 0; p < n; p++ {
			if len(raw) > p {
				cut.At[p] = int64(raw[p]) % (g + 1)
			}
		}
		rep := CheckEvents(events, cut)
		seen := map[int64]bool{}
		for _, o := range rep.Orphans {
			seen[o.MsgID] = true
		}
		for _, fl := range rep.InFlight {
			if seen[fl.MsgID] {
				t.Fatalf("message %d both orphan and in-flight", fl.MsgID)
			}
		}
	})
}
