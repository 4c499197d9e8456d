package cache

// SyncedRev exposes the change-tracking watermark to the external test
// package (tracked_test.go checks the invariant it stands for).
func (m *Manager) SyncedRev() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.syncedRev
}
