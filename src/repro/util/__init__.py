"""Small self-contained utilities shared by the rest of the library."""
