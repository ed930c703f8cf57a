package transport

import (
	"fmt"
	"slices"

	"ocsml/internal/checkpoint"
	"ocsml/internal/core"
	"ocsml/internal/fsstore"
	"ocsml/internal/protocol"
	"ocsml/internal/reliable"
)

// ResumeProtocol builds a process's protocol stack — fresh when line < 0,
// otherwise restarted from its on-disk store at the recovery line, which
// the store must hold (or be at line 0, the initial state): checkpoints
// above the line are truncated on disk and ps (the process's in-memory
// view of its durable checkpoints) is reloaded from what remains. A store
// without the line is refused before anything is truncated. The protocol
// needs no telling: at Start it continues from the last checkpoint its
// store holds. With line as NodeConfig.Resume this is the operator's cold
// restart (ocsmld -resume); Cluster.Recover loads the whole store
// (loadStore) and truncates once its round has agreed a line.
func ResumeProtocol(opt core.Options, rel bool, fs *fsstore.Store, ps *checkpoint.ProcStore, line int) (protocol.Protocol, error) {
	var proto protocol.Protocol = core.New(opt)
	if rel {
		proto = reliable.Wrap(proto, reliable.Options{})
	}
	if line < 0 {
		return proto, nil
	}
	if fs == nil {
		return nil, fmt.Errorf("transport: resuming at line %d needs a datadir", line)
	}
	if line != 0 && !slices.Contains(fs.Manifest().Seqs, line) {
		return nil, fmt.Errorf("transport: P%d has no durable checkpoint at line %d", ps.Proc(), line)
	}
	if err := fs.TruncateAfter(line); err != nil {
		return nil, fmt.Errorf("transport: truncating above recovery line %d: %w", line, err)
	}
	if err := loadStore(fs, ps); err != nil {
		return nil, err
	}
	return proto, nil
}

// loadStore replaces ps's records with the durable ones of fs.
func loadStore(fs *fsstore.Store, ps *checkpoint.ProcStore) error {
	recs, err := fs.LoadAll()
	if err != nil {
		return fmt.Errorf("transport: loading durable checkpoints: %w", err)
	}
	ps.TruncateAfter(-1)
	for _, rec := range recs {
		ps.Add(rec)
	}
	return nil
}
