package recovery

import (
	"testing"

	"ariesim/internal/core"
	"ariesim/internal/wal"
)

// recordsOf returns tx's records in the log, in LSN order.
func recordsOf(log *wal.Log, tx wal.TxID) []*wal.Record {
	var out []*wal.Record
	for _, r := range log.SnapshotFrom(1) {
		if r.TxID == tx {
			out = append(out, r)
		}
	}
	return out
}

// A commit writes no end record. Analysis finishes the transaction at its
// commit record: it is no loser, and redo still applies its update.
func TestCommitWithoutEndIsNoLoser(t *testing.T) {
	e := newEnv(t, core.Config{ID: 1})
	tx := e.tm.Begin()
	e.insertRange(tx, 0, 1)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	recs := recordsOf(e.log, tx.ID)
	if len(recs) != 2 || recs[0].Op != wal.OpIdxInsertKey || recs[1].Type != wal.RecCommit {
		t.Fatalf("committed insert logged %v, want [idx-insert commit]", recs)
	}
	e.crash()
	if txs, _, maxTx, _ := analyze(e.log, &Report{}); len(txs) != 0 || maxTx != tx.ID {
		t.Fatalf("analysis table %v, max tx %d; want empty, %d", txs, maxTx, tx.ID)
	}
	rep := e.restart()
	if rep.LosersUndone != 0 || rep.RedosApplied == 0 {
		t.Fatalf("restart undid %d losers and applied %d redos; want 0 and some", rep.LosersUndone, rep.RedosApplied)
	}
	e.expectKeySet(map[int]bool{0: true})
}

// A checkpoint can catch a transaction between its commit record and its
// exit from the table. When that commit record lies below the scan start,
// the checkpoint's committed entry alone must not make it a loser.
func TestCheckpointedCommittedEntryIsNoLoser(t *testing.T) {
	for _, c := range []struct {
		state  wal.TxState
		losers int
	}{
		{wal.TxCommitted, 0},
		{wal.TxActive, 1}, // the control: the same entry, still in flight
	} {
		log := wal.NewLog(nil)
		upd := log.Append(&wal.Record{Type: wal.RecUpdate, TxID: 7, Page: 9, Op: wal.OpIdxInsertKey, Payload: []byte("k")})
		begin := log.Append(&wal.Record{Type: wal.RecBeginCkpt})
		data := &wal.CheckpointData{Txs: []wal.TxTableEntry{{TxID: 7, State: c.state, LastLSN: upd, UndoNxtLSN: upd}}}
		log.Force(log.Append(&wal.Record{Type: wal.RecEndCkpt, PrevLSN: begin, Payload: data.Encode()}))
		log.SetMaster(begin)
		rep := &Report{}
		txs, _, maxTx, _ := analyze(log, rep)
		if rep.AnalyzedFrom != begin || maxTx != 7 {
			t.Fatalf("%s: analyzed from %d (max tx %d), want the checkpoint at %d", c.state, rep.AnalyzedFrom, maxTx, begin)
		}
		if len(txs) != c.losers {
			t.Fatalf("%s entry: analysis table %v, want %d losers", c.state, txs, c.losers)
		}
	}
}

// Rollback still ends with an end record, whether the transaction rolls
// itself back or restart undoes it as a loser.
func TestRollbackStillWritesEnd(t *testing.T) {
	e := newEnv(t, core.Config{ID: 1})
	tx := e.tm.Begin()
	e.insertRange(tx, 0, 5)
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if recs := recordsOf(e.log, tx.ID); recs[len(recs)-1].Type != wal.RecEnd {
		t.Fatalf("a rollback's last record is %s, want an end record", recs[len(recs)-1])
	}
	loser := e.tm.Begin()
	e.insertRange(loser, 10, 15)
	e.log.ForceAll()
	e.crash()
	if rep := e.restart(); rep.LosersUndone != 1 {
		t.Fatalf("restart undid %d losers, want 1", rep.LosersUndone)
	}
	if recs := recordsOf(e.log, loser.ID); recs[len(recs)-1].Type != wal.RecEnd {
		t.Fatalf("an undone loser's last record is %s, want an end record", recs[len(recs)-1])
	}
	e.expectKeySet(map[int]bool{0: false, 10: false})
}
