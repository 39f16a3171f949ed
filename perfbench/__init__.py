"""Host-normalized benchmark of the GDSII-Guard reproduction (see README.md)."""
