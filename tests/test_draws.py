"""Seeded uniform draws: the stream the disturbance is built from."""

import random

import numpy as np

from dptco.draws import uniform


def test_uniform_stream_pinned():
    # literal first draws of random.Random(0), which gives the same stream
    # in every Python version
    got = uniform(random.Random(0), 0.0, 1.0, (2, 2))
    assert got.tolist() == [[0.8444218515250481, 0.7579544029403025],
                            [0.420571580830845, 0.25891675029296335]]


def test_uniform_row_major_with_broadcast_bounds():
    # the last axis takes the per-column bounds; the draws fill row by row
    got = uniform(random.Random(0), np.array([-1.0, 10.0]),
                  np.array([1.0, 20.0]), (2, 2))
    assert got.tolist() == [[0.6888437030500962, 17.579544029403024],
                            [-0.15885683833831, 12.589167502929634]]

