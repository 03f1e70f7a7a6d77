package sim

// IndexSyncs returns the number of node-index leaves syncIndex has written
// so far: zero for a run whose scheduler never reads the index.
func (s *Simulator) IndexSyncs() int { return s.idxSyncs }
