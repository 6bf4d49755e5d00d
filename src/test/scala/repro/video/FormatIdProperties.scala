package repro.video

import org.scalacheck.{Gen, Prop, Properties}
import org.scalacheck.Prop.propBoolean
import repro.video.Formats._
import repro.video.Knobs._

/** The dense format ids: `Fidelity.id` numbers F in `Fidelity.space` order,
  * `Coding.id` numbers C in `Coding.space` order, and `StorageFormat.id`
  * is a bijection from F x C onto 0 until 15 600 that agrees with equality.
  */
object FormatIdProperties extends Properties("FormatIds") {

  private def fresh(c: Coding): Coding = c match {
    case Encoded(step, kf) => Encoded(step, KeyframeInterval(kf.frames))
    case Raw               => Raw
  }

  private val genSf: Gen[StorageFormat] =
    for (f <- Gen.oneOf(Fidelity.space); c <- Gen.oneOf(Coding.space)) yield StorageFormat(f, c)

  /** `sf` with one knob redrawn: often a near miss, sometimes `sf` again. */
  private def oneKnobFrom(sf: StorageFormat): Gen[StorageFormat] = {
    val f = sf.fidelity
    Gen.oneOf(
      Gen.oneOf(ImageQuality.all).map(q => sf.copy(fidelity = f.copy(quality = q))),
      Gen.oneOf(CropFactor.all).map(c => sf.copy(fidelity = f.copy(crop = c))),
      Gen.oneOf(Resolution.ten).map(r => sf.copy(fidelity = f.copy(resolution = r))),
      Gen.oneOf(FrameSampling.all).map(s => sf.copy(fidelity = f.copy(sampling = s))),
      Gen.oneOf(Coding.space).map(c => sf.copy(coding = c)),
    )
  }

  /** Pairs that are equal (as fresh copies), one knob apart, or unrelated. */
  private val genPair: Gen[(StorageFormat, StorageFormat)] = for {
    a <- genSf
    b <- Gen.oneOf(
      Gen.const(StorageFormat(a.fidelity.copy(), fresh(a.coding))), oneKnobFrom(a), genSf)
  } yield (a, b)

  property("Fidelity.space ids are 0 until 600, in order") =
    Prop(Fidelity.count == 600 && Fidelity.space.map(_.id) == (0 until Fidelity.count))

  property("Coding.space ids are 0 until 26, in order") =
    Prop(Coding.count == 26 && Coding.space.map(_.id) == (0 until Coding.count))

  property("StorageFormat.id is a bijection from F x C onto 0 until 15 600") = {
    val ids = for (f <- Fidelity.space; c <- Coding.space) yield StorageFormat(f, c).id
    Prop(ids.sorted == (0 until 15600))
  }

  property("two storage formats are equal exactly when their ids are") =
    Prop.forAll(genPair) { case (a, b) =>
      ((a == b) == (a.id == b.id)) :| s"$a (${a.id}) vs $b (${b.id})" &&
        ((a.fidelity == b.fidelity) == (a.fidelity.id == b.fidelity.id)) :| "fidelity" &&
        ((a.coding == b.coding) == (a.coding.id == b.coding.id)) :| "coding"
    }

  property("the resolution rank agrees with Resolution.ten.indexOf") =
    Prop.all(Resolution.ten.map(r => (r.rank == Resolution.ten.indexOf(r)) :| s"$r: ${r.rank}"): _*)

  property("a fidelity off the ten resolution rungs has no id to alias") = {
    val offRungs = Seq(Resolution(100, 60), Resolution(1280, 721), Resolution(0, 0), Resolution(10, -1))
    Prop.all(offRungs.map(r => Prop.throws(classOf[IllegalArgumentException])(
      Fidelity.full.copy(resolution = r)) :| s"${r.width}x${r.height}"): _*)
  }
}
