package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"ocsml/internal/des"
)

// jsonEvent is the on-disk representation of an Event: JSON Lines, one
// event per line, so multi-gigabyte traces stream.
type jsonEvent struct {
	G    int64  `json:"g"`
	T    int64  `json:"t"`
	Kind string `json:"kind"`
	Proc int    `json:"proc"`
	Peer int    `json:"peer,omitempty"`
	Msg  int64  `json:"msg,omitempty"`
	Seq  int    `json:"seq,omitempty"`
	Tag  string `json:"tag,omitempty"`
}

var kindByName = func() map[string]Kind {
	m := map[string]Kind{}
	for k, name := range kindNames {
		m[name] = Kind(k)
	}
	return m
}()

// WriteJSON streams the events as JSON Lines.
func WriteJSON(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range events {
		je := jsonEvent{
			G: e.GSeq, T: int64(e.T), Kind: e.Kind.String(),
			Proc: e.Proc, Peer: e.Peer, Msg: e.MsgID, Seq: e.Seq, Tag: e.Tag,
		}
		if err := enc.Encode(je); err != nil {
			return fmt.Errorf("trace: encode event %d: %w", e.GSeq, err)
		}
	}
	return bw.Flush()
}

// ReadJSON parses a JSON Lines trace written by WriteJSON. It refuses a
// trace a Recorder cannot hold: a proc, peer or seq beyond 32 bits, or
// more than 65,535 distinct tags.
func ReadJSON(r io.Reader) ([]Event, error) {
	dec := json.NewDecoder(r)
	var out []Event
	tags := map[string]bool{}
	for {
		var je jsonEvent
		if err := dec.Decode(&je); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("trace: decode line %d: %w", len(out)+1, err)
		}
		kind, ok := kindByName[je.Kind]
		if !ok {
			return nil, fmt.Errorf("trace: unknown event kind %q at line %d", je.Kind, len(out)+1)
		}
		e := Event{
			GSeq: je.G, T: des.Time(je.T), Kind: kind,
			Proc: je.Proc, Peer: je.Peer, MsgID: je.Msg, Seq: je.Seq, Tag: je.Tag,
		}
		if err := narrowError(e); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", len(out)+1, err)
		}
		if e.Tag != "" && !tags[e.Tag] {
			if len(tags) == maxTags {
				return nil, fmt.Errorf("trace: line %d: more than %d distinct tags", len(out)+1, maxTags)
			}
			tags[e.Tag] = true
		}
		out = append(out, e)
	}
}
