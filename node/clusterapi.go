package node

// Cluster plumbing: the handful of hooks node/cluster's sync client
// needs to couple a node's fair admitter to the shed-state service.
// All of them are safe no-ops under flat admission, so a sync client
// can drive a node in either mode.

// saltFor derives a node's own requester-hash salt from its seed, so
// that two nodes never shed the same colliding requesters. A cluster
// replaces it with a shared one through SetAdmissionSalt.
func saltFor(seed uint64) uint64 {
	return seed*0x9e3779b97f4a7c15 + 1
}

// SetAdmissionSalt installs a new requester-hash salt and forgets all
// counted demand: counts hashed under the old salt land in meaningless
// buckets under the new one. The cluster sync client calls it when the
// shed-state service rotates the salt epoch.
func (n *Node) SetAdmissionSalt(salt uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.keySalt = salt
	if f, ok := n.adm.(*fairAdmitter); ok {
		f.resetSketch()
	}
}

// TakeAdmissionDelta drains the fair sketch's demand counted since the
// previous drain, reporting whether any accrued. Always empty under
// flat admission.
func (n *Node) TakeAdmissionDelta() (AdmissionDelta, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if f, ok := n.adm.(*fairAdmitter); ok {
		return f.takeDelta()
	}
	return AdmissionDelta{}, false
}

// SetClusterAggregate installs the cluster-merged demand view: under
// pressure a requester's demand estimate becomes max(local, cluster),
// exposing heavy requesters that rotate across nodes.
func (n *Node) SetClusterAggregate(agg AdmissionAggregate) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if f, ok := n.adm.(*fairAdmitter); ok {
		f.setAggregate(agg, true)
	}
}

// ClearClusterAggregate drops the cluster view, returning the admitter
// to local-only shedding (the sync client's fallback on service
// outage, slowness, or a stale epoch).
func (n *Node) ClearClusterAggregate() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if f, ok := n.adm.(*fairAdmitter); ok {
		f.setAggregate(AdmissionAggregate{}, false)
	}
}
