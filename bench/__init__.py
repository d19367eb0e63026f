"""The SEED end-to-end benchmark (see ``bench/README.md``)."""
