"""The repo's served, replay-based benchmark (see README.md here)."""
