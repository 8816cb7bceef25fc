"""Pin the on-disk encoding of checkpoint pieces that carry payloads.

``piece_digest`` is what every stored piece is verified against, and
``_encode_payload`` is the payload blob of the ``RCKPT1`` archive.  A
change to either silently invalidates every archive written before it,
so both are pinned here, for one page-mode piece and one dcp piece at
256-byte blocks, as hex constants.  Archives written by ``run
--store-out`` keep no payloads, so nothing else pins these bytes.
"""

from hashlib import sha256

import numpy as np
import pytest

from repro.checkpoint.snapshot import Checkpoint, Payload, SegmentRecord
from repro.storage.archive import _decode_payload, _encode_payload
from repro.storage.integrity import piece_digest

PAGE = 4096


def page_piece() -> Checkpoint:
    """An incremental piece over data, heap and one mmap segment."""
    return Checkpoint(
        seq=3, kind="incremental", taken_at=0.75, page_size=PAGE,
        geometry=(SegmentRecord(sid=2, kind="data", base=0x601000, npages=5),
                  SegmentRecord(sid=4, kind="heap", base=0x606000, npages=8),
                  SegmentRecord(sid=9, kind="mmap", base=0x2aaaaaab0000,
                                npages=3)),
        payloads=(Payload(sid=2, indices=np.array([0, 3, 4], dtype=np.int64),
                          versions=np.array([17, 40, 41], dtype=np.uint64)),
                  Payload(sid=9, indices=np.arange(3, dtype=np.int64),
                          versions=np.array([2**63 + 5, 7, 99],
                                            dtype=np.uint64))))


def dcp_piece() -> Checkpoint:
    """A dcp piece: 16 blocks of 256 bytes per page."""
    return Checkpoint(
        seq=6, kind="dcp", taken_at=1.5, page_size=PAGE, block_size=256,
        geometry=(SegmentRecord(sid=2, kind="data", base=0x601000, npages=2),
                  SegmentRecord(sid=5, kind="bss", base=0x603000, npages=1)),
        payloads=(Payload(sid=2,
                          indices=np.array([1, 2, 15, 16, 31],
                                           dtype=np.int64),
                          versions=np.array([120, 121, 121, 130, 131],
                                            dtype=np.uint64)),
                  Payload(sid=5, indices=np.array([0], dtype=np.int64),
                          versions=np.array([88], dtype=np.uint64))))


PINS = {
    "page": (page_piece, 1,
             "1d84a95e092caf4caee175a9600d011b",
             "56d9e91aadeaedbaf22129f65d8a6319"
             "e3ab59e113eb8a65eb10b7851801af5e"),
    "dcp": (dcp_piece, 2,
            "b416284b1d955cf75131500cf999a2fa",
            "7aba11cf1593ea595b5fbaef84bb3968"
            "a3de5e384610455549f48870e2eacda7"),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_piece_digest_and_encoding_are_pinned(name):
    build, rank, digest_hex, encoding_sha = PINS[name]
    ckpt = build()
    assert piece_digest(rank, ckpt.seq, ckpt.kind, ckpt.nbytes,
                        ckpt) == digest_hex
    blob = _encode_payload(ckpt)
    assert sha256(blob).hexdigest() == encoding_sha
    # and the pinned blob still decodes to the same piece
    back = _decode_payload(blob)
    assert piece_digest(rank, back.seq, back.kind, back.nbytes,
                        back) == digest_hex
