"""Frozen reference implementations that tests pin the production codecs to.

``codecs`` holds the monolithic SZ2/SZ3/SZx/ZFP compressors as they were
before the stage refactor, ``bitstream`` the pre-vectorization flag
packer, and ``optim`` the per-parameter SGD step the arena step replaced.
Nothing under ``src/`` imports them.
"""
