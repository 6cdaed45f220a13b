"""Deliberately broken: every A-family rule must fire here."""
from pathlib import Path

import numpy as np


def bare_write(payload):
    with open("world.manifest.json", "w") as stream:  # line 8: A201
        stream.write(payload)


def appending(payload, mode):
    with open("trace.json", "a") as stream:  # line 13: A201
        stream.write(payload)
    with open("metrics.prom", mode) as stream:  # line 15: A201 (non-literal)
        stream.write(payload)


def direct_npz(arrays):
    np.savez("checkpoint.npz", **arrays)  # line 20: A202
    np.savez_compressed("dataset.npz", **arrays)  # line 21: A202
    np.save("column.npy", arrays["ips"])  # line 22: A202


def path_write(payload):
    Path("BENCH_collect.json").write_text(payload)  # line 26: A203
    Path("digest.bin").write_bytes(payload)  # line 27: A203


def codec_writer_bypass(stream, column, mode):
    import zipfile

    np.lib.format.write_array(stream, column)  # line 33: A202
    with zipfile.ZipFile("dataset.npz", "w") as bundle:  # line 34: A202
        bundle.writestr("ips_0.npy", b"")
    zipfile.ZipFile("dataset.npz", mode="a").close()  # line 36: A202
    zipfile.ZipFile("dataset.npz", mode).close()  # line 37: A202 (non-literal)
    zipfile.ZipFile("dataset.npz").close()  # reads are fine
    zipfile.ZipFile("dataset.npz", "r").close()  # reads are fine
