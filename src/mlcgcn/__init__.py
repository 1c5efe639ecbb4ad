"""Multi-level learned-connectome GCN for ROI time-series classification."""
