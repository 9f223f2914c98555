package core

import "sort"

// connShards is the shard count of the endpoint connection table. A
// power of two, so the shard pick is a mask. 16 shards keep each map
// small (≤64 entries at the 1024-conn design point), which bounds both
// lookup probe lengths and the rehash pauses Go maps take as they grow.
const connShards = 16

// connTable is the endpoint's connection demux, sharded by connection
// id. The protocol thread never iterates it — its scheduler pops conns
// from FIFO queues — so the only walk is sorted, for health snapshots.
type connTable struct {
	shards [connShards]map[uint32]*Conn
	n      int
}

func newConnTable() *connTable {
	t := &connTable{}
	for i := range t.shards {
		t.shards[i] = make(map[uint32]*Conn)
	}
	return t
}

func (t *connTable) get(id uint32) (*Conn, bool) {
	c, ok := t.shards[id&(connShards-1)][id]
	return c, ok
}

func (t *connTable) put(id uint32, c *Conn) {
	s := t.shards[id&(connShards-1)]
	if _, ok := s[id]; !ok {
		t.n++
	}
	s[id] = c
}

func (t *connTable) del(id uint32) {
	s := t.shards[id&(connShards-1)]
	if _, ok := s[id]; ok {
		t.n--
		delete(s, id)
	}
}

func (t *connTable) len() int { return t.n }

// sorted returns every tabled connection in ascending local id order,
// which is dial/accept order since ids are handed out sequentially.
func (t *connTable) sorted() []*Conn {
	out := make([]*Conn, 0, t.n)
	for _, s := range t.shards {
		for _, c := range s {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].localID < out[j].localID })
	return out
}
