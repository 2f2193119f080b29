"""Output bytes pinned: the sha256 of every file the CLI writes for the
preset sweeps, `validate` (the default set and 500 random instances),
`linear`/`steady` on the two model presets and on a bare-detuning config
with three branches, `derive` on that config, and `geometry` on a cavity
config.

The digests hold for the numpy version in NUMPY; under another version
LAPACK may round differently, so the test skips.  A change that moves
output bytes on purpose updates DIGESTS (print the current ones with
`PYTHONPATH=src python tests/test_golden.py`) and lists each old -> new
digest in CHANGES.md.  The CI workflow runs every entry of RUNS through
the installed console script too (`run_argv`, `file_digests`).
"""

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest

from trimech.cli import main

#: numpy version the digests were recorded with
NUMPY = "2.4.6"

#: fig3-like physics (mirror at 10 kappa_c, 1 K baths) at a bare detuning
#: where the mean field has three branches, one of them stable
BARE_CONFIG = """\
[physical]
wavelength       = 1064 nm
cavity_length    = 0.5 cm
cavity_decay     = 50 kHz
mirror_mass      = 40 ng
mirror_freq      = 500 kHz
mirror_damping   = 140 Hz
sphere_radius    = 0.5 um
sphere_density   = 2650 kg/m^3
refractive_index = 1.5
sphere_freq      = 170 kHz
sphere_damping   = 0.5 mHz
cavity_waist     = 40 um
bath_temp_mirror = 1 K
bath_temp_sphere = 1 K
input_power      = 5e-5 W
sphere_site      = node

[model]
detuning_mode = bare
detuning      = -27.2
"""

#: a cavity of two identical passive mirrors, sampled at 101 points
GEOMETRY_CONFIG = """\
[geometry]
length         = 0.5 cm
wavelength     = 1064 nm
reflectivity   = -0.9
transmissivity = 0.1
samples        = 101
"""

#: config file name -> text; each run reads the file its arguments name
CONFIGS = {"bare.cfg": BARE_CONFIG, "geometry.cfg": GEOMETRY_CONFIG}

#: run name -> CLI arguments; a key of CONFIGS stands for that file's path
RUNS = {
    **{f"sweep-{p}": ["sweep", "--preset", p, "--format", "both"]
       for p in ("fig2", "fig3", "fig4")},
    "validate": ["validate"],
    "validate-500": ["validate", "--validate-instances", "500"],
    **{f"{cmd}-{p}": [cmd, "--preset", p]
       for cmd in ("linear", "steady") for p in ("fig3", "fig4")},
    "linear-bare": ["linear", "-i", "bare.cfg"],
    "steady-bare": ["steady", "-i", "bare.cfg"],
    "derive-bare": ["derive", "-i", "bare.cfg"],
    "geometry": ["geometry", "-i", "geometry.cfg"],
}

#: run name -> {file written: sha256}
DIGESTS = {
    "derive-bare": {
        "model_params.txt":
            "746de63ee737422605f161c623dc47a3b6ec4970a4e15218f1932dc8fb08d4fe",
    },
    "geometry": {
        "field_profile.dat":
            "458c53f15502dcc8d2a1e0363852ad7a79bf02cf77c162917095533e2b53d1e3",
    },
    "linear-bare": {
        "linear.txt":
            "dbef31214de47eecc3af3c4bf74befee563300ef88ad7b9e463d99a743ada433",
    },
    "linear-fig3": {
        "linear.txt":
            "d6a08c6dddbf933237b8347292f50862e4c74837826a76ef5f043f3f248d88ca",
    },
    "linear-fig4": {
        "linear.txt":
            "0fe9d05d14ddd077e1129bf5244cf9692043f3ca51143fe33841ce035b8bb800",
    },
    "steady-bare": {
        "steady_state.txt":
            "6ca1598910111a5044c47bbd77c5a7b3d5bb9883a5c3e612e3512dadeb2991ce",
    },
    "steady-fig3": {
        "steady_state.txt":
            "c7c1dccb764b3a5061d9b4c4936390d9f6b0bb7adf40d754196321b069f18f8f",
    },
    "steady-fig4": {
        "steady_state.txt":
            "005384929f30daeae71a26a5be1e15bf84a735d186e5ae3f3f7eaf78f7b010d6",
    },
    "sweep-fig2": {
        "landscape.dat":
            "a14b93eb236a50dbdf7faa9011fe659f1dfd4dabf2c73787b2ede2169485cea0",
        "summary.json":
            "d70ed7fb766827f0f3bed50d32f25a7e1d948cf5660ff775897f691b90467fb8",
        "sweep.csv":
            "90c7ef21cfb2a49cf93f17f3636eb2f2946b8c27b3cd8c3592422642bfbbda2d",
    },
    "sweep-fig3": {
        "summary.json":
            "cbb24935b445334e4e183d0c0d42b83abb6300b87e53364cf890c18163ef0ee9",
        "sweep.csv":
            "92c1a219431eba3ced9601433de6ec35a70610e3c1f24ab3b73afb80871a2302",
    },
    "sweep-fig4": {
        "summary.json":
            "7efb42a7f17215961a295efda3738d7797c14d30fea29cf9c599c32fd5f06385",
        "sweep.csv":
            "aa08c0194579d05e47015f6f552cb66d60e9e978359a158250fe9043c4c8ce0b",
    },
    "validate": {
        "validation.txt":
            "8dbfca7c486cb2873d2f45788ca9d4b909999f59a0af6411fe8879e40e4e0ba3",
    },
    "validate-500": {
        "validation.txt":
            "768ed5556459f1a08199f0a6e1ccc8c14c9781ceb6d0c3f1cd4be9aa6c77805c",
    },
}


def run_argv(name, out_dir):
    """Write the CONFIGS files into the empty directory `out_dir`; the CLI
    arguments of run `name`, which writes into `out_dir`/out."""
    out_dir = Path(out_dir)
    for file, text in CONFIGS.items():
        (out_dir / file).write_text(text, encoding="utf-8")
    return ([str(out_dir / arg) if arg in CONFIGS else arg for arg in RUNS[name]]
            + ["-o", str(out_dir / "out")])


def file_digests(directory):
    """{file: sha256} of every file in `directory`."""
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(Path(directory).iterdir())}


def output_digests(name, out_dir):
    """Run `name` into the empty directory `out_dir`; {file: sha256}."""
    argv = run_argv(name, out_dir)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    return file_digests(Path(out_dir) / "out")


@pytest.mark.skipif(np.__version__ != NUMPY,
                    reason=f"digests recorded with numpy {NUMPY}, not "
                           f"{np.__version__}; LAPACK may round differently")
@pytest.mark.parametrize("name", sorted(RUNS))
def test_output_bytes(name, tmp_path):
    assert output_digests(name, tmp_path) == DIGESTS[name]


if __name__ == "__main__":
    print("DIGESTS = {")
    for name in sorted(RUNS):
        with tempfile.TemporaryDirectory() as tmp:
            files = output_digests(name, tmp)
        print(f'    "{name}": {{')
        for file, digest in files.items():
            print(f'        "{file}":\n            "{digest}",')
        print("    },")
    print("}")
