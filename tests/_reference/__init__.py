"""Frozen reference implementations that tests pin the production codecs to.

``codecs`` holds the monolithic SZ2/SZ3/SZx/ZFP compressors as they were
before the stage refactor, and ``bitstream`` the pre-vectorization flag
packer.  Nothing under ``src/`` imports them.
"""
