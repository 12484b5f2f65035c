"""Write src/phiprod/sobol_joe_kuo.txt: the Sobol' initial direction numbers
of Joe & Kuo (2008; the file new-joe-kuo-6.21201) for the first 1024
dimensions, from the copy that scipy ships as
``scipy/stats/_sobol_direction_numbers.npz`` (arrays ``poly`` and ``vinit``).
``phiprod.mvn_cdf`` builds its scrambled nets from this table, so that it
never imports ``scipy.stats`` at run time.

One line per dimension: the primitive polynomial as an integer (its degree
s is its bit length minus one; dimension 0 has s = 0), then m_1, ..., m_s,
padded with zeros to the largest degree in the table.

Run from the repository root (it takes a second):

    python tests/data/make_sobol_table.py
"""

from pathlib import Path

import numpy as np
import scipy.stats

DIMS = 1024
TABLE = Path(__file__).resolve().parents[2] / "src" / "phiprod" / "sobol_joe_kuo.txt"


def main() -> None:
    source = Path(scipy.stats.__file__).parent / "_sobol_direction_numbers.npz"
    with np.load(source) as npz:
        poly, vinit = npz["poly"][:DIMS], npz["vinit"][:DIMS]
    degree = max(int(p).bit_length() - 1 for p in poly)
    header = (f"Sobol' initial direction numbers of Joe & Kuo (2008), new-joe-kuo-6.21201,\n"
              f"dimensions 0..{DIMS - 1}: the primitive polynomial, then m_1..m_s zero padded\n"
              f"(s = bit length of the polynomial - 1). Written by\n"
              f"tests/data/make_sobol_table.py from scipy's _sobol_direction_numbers.npz.")
    np.savetxt(TABLE, np.column_stack([poly, vinit[:, :degree]]), fmt="%d",
               header=header)


if __name__ == "__main__":
    main()
