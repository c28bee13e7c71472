"""Golden records: the sha256 of the canonical case records of small
configs of every suite.

The digest covers `emit_report(report)` with `wall_time` set to 0, so it
pins every recorded number to the last bit, the sign of zero included, as
well as every summary, gate margin (`summary["margins"]`) and verdict.  Some
of these small configs fail their statistical drift gate; that verdict is
part of the pinned bytes too.
A change that moves a record on purpose updates the digest here and says by
how much in CHANGES.md.
"""

import dataclasses
import hashlib
import json
import math

import pytest

from torwave.harness import ExperimentConfig, emit_report, run_suite

# name -> (config, sha256 of the canonical records)
GOLDEN = {
    "reconstruction-haar": (
        dict(suite="reconstruction", resolutions=[32, 256], basis_family="haar",
             basis_order=1, sample_count=6, root_seed=11),
        "5509e78a2c2ec2af3e60acb6a234d292c5907446aab0ec1fcf5311fec91f980f"),
    "reconstruction-db8": (
        dict(suite="reconstruction", resolutions=[64, 256], basis_order=8, sample_count=6,
             root_seed=12),
        "071148df35ce4e4115b58a3950e786e316c971105d4c0b13ed646446c898cc96"),
    "reconstruction-2d": (
        dict(suite="reconstruction", resolutions=[16, 64], basis_order=2, dim=2,
             sample_count=3, root_seed=13),
        "a6b3d6e947930889ca963f4e9551aa585cc1ea3362848e2c4c6afc4f23ea5c80"),
    "product_identity": (
        dict(suite="product_identity", resolutions=[128, 256], sample_count=6,
             root_seed=21),
        "da4cd1f89feaf0bfbedd7d038803fb4bde2498d12b3bb8c8f694bd5f039c98ea"),
    "product_identity-haar-j3": (
        dict(suite="product_identity", resolutions=[64, 128], basis_family="haar",
             basis_order=1, coarse_level=3, sample_count=6, root_seed=23),
        "ec36e31f565f92f304f3d46f65d3daee16720deb4646f318424c0e14ce4a0a9c"),
    "product_identity-2d": (
        dict(suite="product_identity", resolutions=[16, 32], basis_order=2, dim=2,
             sample_count=3, root_seed=22),
        "57f043ac4b6b4138fa3d800ed36c336731103c8e41c80db4598d3e9ec5f6a488"),
    "commutator_identity-hilbert": (
        dict(suite="commutator_identity", resolutions=[128, 256], operator="hilbert",
             sample_count=6, root_seed=31),
        "930efba8a00edef697ca41b4b0a4be9d066466d26da279d0f30c078740036591"),
    "commutator_identity-ifrac": (
        dict(suite="commutator_identity", resolutions=[128, 256], operator="ifrac:0.5",
             sample_count=6, root_seed=32),
        "bc8b006e3ce8be117edd69a814c56b225c67819b0a431678d3436a0f6e979903"),
    "commutator_identity-riesz1": (
        dict(suite="commutator_identity", resolutions=[32, 64], operator="riesz1", dim=2,
             sample_count=2, root_seed=33),
        "6d9ecd67e67834dfdbffc483cecb9b55b7d21a87ab0d1735e73b48265a47778e"),
    "boundedness_sweep": (
        dict(suite="boundedness_sweep", resolutions=[128, 256], sample_count=6,
             root_seed=41),
        "39f05787da200c3a3d79a641e04ee30a875c92d733ac1e0d24e55126d34a50ed"),
    "boundedness_sweep-2d": (
        dict(suite="boundedness_sweep", resolutions=[16, 32], basis_order=2, dim=2,
             sample_count=2, root_seed=42),
        "dff5cf8689c172ca1e67957df9d5e9673a346ed89af5469411303160c39c358b"),
    "almost_diagonal": (
        dict(suite="almost_diagonal", resolutions=[128], sample_count=4, root_seed=51),
        "dac3a7da9e05103b9194dd83f83da7109a83984520616d6d823d12688b799948"),
    "sandwich-maximal": (
        dict(suite="sandwich", resolutions=[128], operator="maximal", sample_count=3,
             root_seed=61),
        "07821dd6ca43759c5cb4868f57b85d82fd68c7bea05872d278fd1d259ce5d831"),
    "sandwich-lusin": (
        dict(suite="sandwich", resolutions=[128], operator="lusin", sample_count=3,
             root_seed=62),
        "45960ee19074d177fe4c040be82384fd09b340d325b362daa6850558d583b4ce"),
    "sandwich-maximal-2d": (
        dict(suite="sandwich", resolutions=[16, 32], operator="maximal", basis_order=2,
             dim=2, sample_count=2, root_seed=63),
        "13202751988ac95cd1d6f2811c9cce93b8e65a599d35a443dba58c67e10f1bf8"),
    "sandwich-lusin-2d": (
        dict(suite="sandwich", resolutions=[16, 32], operator="lusin", basis_order=2,
             dim=2, sample_count=2, root_seed=64),
        "b0c6118b68345612152e4a723e3a0eec4d6a3ee5273ee9f9e450982ad75dd063"),
    "h1b_equivalence": (
        dict(suite="h1b_equivalence", resolutions=[64, 128], sample_count=2, root_seed=71),
        "6a34c1751cf11452b9c6a3bbdab9172b9ec53b5f42cb6435931b3052e8c5a3f1"),
    "unboundedness_probe": (
        dict(suite="unboundedness_probe", resolutions=[256, 512], sample_count=1,
             root_seed=81),
        "aea8f710fbdd09be5255a1ad2f1d45eeb216f8761c68ec48ecd196c0f2ed51ef"),
    "molecule": (
        dict(suite="molecule", resolutions=[64, 128], sample_count=3, root_seed=91),
        "c52aed9e1f81854406b702bb4916ba15c49bad030a16fff69a28025ed9d092bc"),
    "fractional": (
        dict(suite="fractional", resolutions=[64, 128], sample_count=3, root_seed=101),
        "94a5ad9491bdc20151bddf624af159f3e829342208e82fa0bb7b12495bb2f10e"),
    "fractional-2d": (
        dict(suite="fractional", resolutions=[16, 32], basis_order=2, dim=2,
             sample_count=3, root_seed=102),
        "a85ddfddd50fb248fe6ee7f476d22c5db040bfee64ef3c3b9217cb00d6236400"),
}


def _no_constant(token):
    raise AssertionError(f"the report holds {token}, which is not plain JSON")


@pytest.mark.parametrize("name", GOLDEN)
def test_records_are_byte_identical(name):
    config, digest = GOLDEN[name]
    report = run_suite(ExperimentConfig.from_dict(config))
    text = emit_report(dataclasses.replace(report, wall_time=0.0))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    # every gate has a finite margin or null, and no NaN or Infinity is written
    margins = report.summary["margins"]
    assert margins and all(m is None or math.isfinite(m) for m in margins.values())
    json.loads(text, parse_constant=_no_constant)
