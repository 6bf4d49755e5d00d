package repro.video

import org.scalatest.funsuite.AnyFunSuite
import repro.video.Knobs._
import repro.video.Formats._

class FormatsSpec extends AnyFunSuite {

  private def res(h: Int) = Resolution.ten.find(_.height == h).get
  private def fid(q: ImageQuality, c: CropFactor, h: Int, s: FrameSampling) =
    Fidelity(q, c, res(h), s)

  private val low = fid(ImageQuality.Bad, CropFactor.C50, 144, FrameSampling.S1_30)
  private val mid = fid(ImageQuality.Good, CropFactor.C75, 360, FrameSampling.S1_2)
  private val high = Fidelity.full

  test("storage format can serve a CF iff richer-or-equal (R1)") {
    val sf = StorageFormat(mid, Coding.slowestSmallest)
    assert(sf.canServe(ConsumptionFormat(low)))
    assert(sf.canServe(ConsumptionFormat(mid)))
    assert(!sf.canServe(ConsumptionFormat(high)))
  }

  test("golden format fidelity is the knob-wise max of all CFs") {
    val g = golden(Seq(ConsumptionFormat(low), ConsumptionFormat(mid)))
    assert(g.fidelity === Fidelity.max(low, mid))
    assert(g.coding === Coding.slowestSmallest)
  }

  test("golden format serves every contributing CF") {
    val cfs = Fidelity.space.grouped(29).map(f => ConsumptionFormat(f.head)).toVector
    val g = golden(cfs)
    cfs.foreach(cf => assert(g.canServe(cf)))
  }

  test("golden of an empty CF set is rejected") {
    assertThrows[IllegalArgumentException](golden(Seq.empty))
  }

  test("golden of one CF is that CF's fidelity with slowest coding") {
    val g = golden(Seq(ConsumptionFormat(mid)))
    assert(g.fidelity === mid)
  }

  test("buildTree roots at the unique richest format") {
    val sfs = Seq(
      StorageFormat(high, Coding.slowestSmallest),
      StorageFormat(mid, Raw),
      StorageFormat(low, Raw))
    val t = buildTree(sfs.head, sfs)
    assert(t.root.fidelity === high)
    assert(t.formats.toSet === sfs.toSet)
  }

  test("buildTree parents are strictly richer (or name-ordered equals)") {
    val sfs = Seq(
      StorageFormat(high, Coding.slowestSmallest),
      StorageFormat(mid, Raw),
      StorageFormat(low, Raw),
      StorageFormat(fid(ImageQuality.Best, CropFactor.C100, 200, FrameSampling.S1), Raw))
    val t = buildTree(sfs.head, sfs)
    t.parent.foreach { case (c, p) =>
      assert(p.fidelity.richerOrEqual(c.fidelity), s"$p !>= $c")
    }
  }

  test("buildTree ancestors chain terminates at the root") {
    val sfs = Seq(
      StorageFormat(high, Coding.slowestSmallest),
      StorageFormat(mid, Raw),
      StorageFormat(low, Raw))
    val t = buildTree(sfs.head, sfs)
    sfs.foreach { sf =>
      val chain = t.ancestors(sf)
      if (sf == t.root) assert(chain.isEmpty)
      else assert(chain.last === t.root)
    }
  }

  test("buildTree picks the least richer parent") {
    val a = StorageFormat(high, Coding.slowestSmallest)
    val b = StorageFormat(mid, Raw)
    val c = StorageFormat(low, Raw)
    val t = buildTree(a, Seq(a, b, c))
    // low is coverable by both mid and high; mid has smaller pixel rate
    assert(t.parent(c) === b)
    assert(t.parent(b) === a)
  }

  test("buildTree requires a root richer than all") {
    // two incomparable formats, no golden
    val x = StorageFormat(fid(ImageQuality.Best, CropFactor.C50, 720, FrameSampling.S1_30), Raw)
    val y = StorageFormat(fid(ImageQuality.Bad, CropFactor.C100, 144, FrameSampling.S1), Raw)
    assertThrows[IllegalArgumentException](buildTree(x, Seq(x, y)))
    assertThrows[IllegalArgumentException](buildTree(y, Seq(x, y)))
  }

  test("buildTree on a single format yields a bare root") {
    val t = buildTree(StorageFormat(high, Raw), Nil)
    assert(t.formats.size === 1 && t.parent.isEmpty)
  }

  test("buildTree never creates a parent cycle with equal fidelities") {
    val a = StorageFormat(mid, Raw)
    val b = StorageFormat(mid, Coding.slowestSmallest)
    val g = StorageFormat(high, Coding.slowestSmallest)
    val t = buildTree(g, Seq(a, b, g))
    // walking ancestors from both must terminate
    assert(t.ancestors(a).last === t.root)
    assert(t.ancestors(b).last === t.root)
  }

  test("buildTree hangs an equal-fidelity format under the given root") {
    // the root's name sorts after its twin's, so only the root rule applies
    val root = StorageFormat(high, Raw)
    val twin = StorageFormat(high, Coding.slowestSmallest)
    val t = buildTree(root, Seq(twin))
    assert(t.parent(twin) === root)
  }
}
